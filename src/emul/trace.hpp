// Execution traces (paper section 4).
//
// "The emulator executes the same three modules that are used in the
// prototype. The Chai VM is replaced with a wrapper that is used to play back
// execution and resource traces into the modules."
//
// A Trace is the flat event stream extracted from a prototype run on a single
// VM: allocations, frees, method invocations and exits (with Figure 9
// self-times), data accesses, and GC cycle reports, with a stable CSV
// round-trip for archival and tests.
//
// Storage. The recorder, the CSV and tests build and read the wide
// TraceRecord; a Trace stores each one packed into a 24-byte TraceEvent.
// Each (object, class) operand becomes a 32-bit index into the per-trace
// `refs` table and each method a 16-bit index into `methods`. The aux1/aux2
// payloads that only GC and resize events use, and any `bytes` value outside
// [0, 2^32), move to the sparse `aux` side table, marked on the event by
// kFlagAux. Interning a ref while appending costs one or two array loads:
// objects of the recording VM (the node of the first id seen) are indexed
// directly by their sequence number and static refs (no object) by their
// class; only foreign node bits, sequences >= 2^24 and an object seen under
// a second class fall back to a map. That index is build-time state: the
// recorder's take() and load_csv drop it.
#pragma once

#include <cassert>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/simclock.hpp"

namespace aide::emul {

enum class TraceEventType : std::uint8_t {
  alloc = 0,
  free_obj = 1,
  resize = 2,
  invoke = 3,
  access = 4,
  method_enter = 5,
  method_exit = 6,
  gc = 7,
};

// Flag bits for invoke/access events.
inline constexpr std::uint8_t kFlagNative = 1;
inline constexpr std::uint8_t kFlagStatic = 2;
inline constexpr std::uint8_t kFlagStateless = 4;
inline constexpr std::uint8_t kFlagWrite = 8;
// Every flag bit a TraceRecord may carry.
inline constexpr std::uint8_t kRecordFlags =
    kFlagNative | kFlagStatic | kFlagStateless | kFlagWrite;
// Reserved for packed events: this event's bytes, aux1 and aux2 are in
// Trace::aux.
inline constexpr std::uint8_t kFlagAux = 0x80;

// One event in its wide form, as the recorder observes it and the CSV
// stores it.
struct TraceRecord {
  TraceEventType type{};
  std::uint8_t flags = 0;  // kRecordFlags bits only
  SimTime t = 0;
  ClassId cls_a;   // alloc/free/resize/enter/exit: object class; invoke:
                   // caller class; access: source class
  ClassId cls_b;   // invoke: callee class; access: target class
  ObjectId obj_a;  // alloc/free/resize/enter/exit: the object; invoke: caller
                   // object; access: source object
  ObjectId obj_b;  // invoke: callee object; access: target object
  MethodId method;
  std::int64_t bytes = 0;  // alloc/free size, interaction bytes,
                           // method_exit self-time, gc used_after
  std::int64_t aux1 = 0;   // gc: capacity; resize: delta
  std::int64_t aux2 = 0;   // gc: freed

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

// One event as a Trace stores it. `a`/`b` index Trace::refs for the
// (obj_a, cls_a) and (obj_b, cls_b) operands and `method` indexes
// Trace::methods. Under kFlagAux, `bytes` is 0 and the event's bytes, aux1
// and aux2 are in Trace::aux; otherwise `bytes` is the value and aux1/aux2
// are 0.
struct TraceEvent {
  SimTime t = 0;
  std::uint32_t bytes = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint16_t method = 0;
  TraceEventType type{};
  std::uint8_t flags = 0;  // kRecordFlags bits, plus kFlagAux
};
static_assert(sizeof(TraceEvent) == 24, "trace events must stay packed");

// One (object, class) operand. A static ref has no object; ref 0 has
// neither.
struct TraceRef {
  ObjectId obj;
  ClassId cls;

  friend bool operator==(const TraceRef&, const TraceRef&) = default;
};

// The full payload of one kFlagAux event; Trace::aux is sorted by `event`.
struct TraceAux {
  std::uint64_t event = 0;  // index into Trace::events
  std::int64_t bytes = 0;
  std::int64_t aux1 = 0;
  std::int64_t aux2 = 0;
};

class Trace {
 public:
  std::vector<TraceEvent> events;
  // Ref and method tables; index 0 of each is the invalid operand (no
  // object and no class; MethodId::invalid()) once any event is stored.
  // An object id seen under two classes has two refs.
  std::vector<TraceRef> refs;
  std::vector<MethodId> methods;
  std::vector<TraceAux> aux;

  [[nodiscard]] std::size_t size() const noexcept { return events.size(); }
  [[nodiscard]] bool empty() const noexcept { return events.empty(); }
  // Duration of the recorded run (time of the last event).
  [[nodiscard]] SimDuration duration() const noexcept {
    return events.empty() ? 0 : events.back().t;
  }

  // Packs and stores one event. `r.flags` must hold kRecordFlags bits only.
  // Throws std::length_error when the ref or method table is full.
  void append(const TraceRecord& r) {
    assert((r.flags & ~kRecordFlags) == 0);
    if (refs.empty()) {
      refs.emplace_back();
      methods.push_back(MethodId::invalid());
    }
    TraceEvent e;
    e.t = r.t;
    e.method = intern_method(r.method);
    e.a = intern(r.obj_a, r.cls_a);
    e.b = intern(r.obj_b, r.cls_b);
    e.type = r.type;
    e.flags = r.flags;
    if ((static_cast<std::uint64_t>(r.bytes) >> 32) == 0 && r.aux1 == 0 &&
        r.aux2 == 0) {
      e.bytes = static_cast<std::uint32_t>(r.bytes);
    } else {
      e.flags |= kFlagAux;
      aux.push_back(TraceAux{events.size(), r.bytes, r.aux1, r.aux2});
    }
    events.push_back(e);
  }

  // Event `i` in its wide form. Throws std::out_of_range past the end.
  [[nodiscard]] TraceRecord at(std::size_t i) const;

  // Empties the trace and drops the interning index.
  void clear() noexcept;
  // Releases the interning index. The trace stays valid and appendable; the
  // next append that misses rebuilds the index from `refs` and `methods`.
  void drop_index() noexcept;
  // Approximate heap bytes the interning index holds (0 once dropped).
  [[nodiscard]] std::size_t index_bytes() const noexcept;

  void save_csv(std::ostream& os) const;
  // Throws std::runtime_error on a malformed row, an unknown event type or
  // undefined flag bits.
  static Trace load_csv(std::istream& is);

 private:
  static constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << 48) - 1;
  static constexpr std::uint64_t kDenseLimit = std::uint64_t{1} << 24;
  static constexpr std::uint64_t kNoHome = ~std::uint64_t{0};

  std::uint32_t intern(ObjectId obj, ClassId cls) {
    const std::uint64_t v = obj.value();
    if (v == ObjectId::invalid_value) {
      if (!cls.valid()) return 0;
      if (cls.value() < statics_.size() && statics_[cls.value()] != 0) {
        return statics_[cls.value()];
      }
    } else if ((v >> 48) == home_node_ && (v & kSeqMask) < dense_.size()) {
      const std::uint32_t ix = dense_[v & kSeqMask];
      if (ix != 0 && refs[ix].cls == cls) return ix;
    }
    return intern_slow(TraceRef{obj, cls});
  }
  std::uint32_t intern_slow(const TraceRef& ref);
  std::uint16_t intern_method(MethodId m);
  // The index slot of a ref other than ref 0, created (holding 0) if absent.
  std::uint32_t& slot_for(const TraceRef& ref);
  // Indexes refs[indexed_refs_, size()) and methods[indexed_methods_, size()).
  void reindex();

  struct RefHash {
    std::size_t operator()(const TraceRef& r) const noexcept {
      return std::hash<std::uint64_t>{}(r.obj.value() * 0x9E3779B97F4A7C15ULL ^
                                        r.cls.value());
    }
  };

  // Build-time interning index. dense_[seq] is the first ref of the
  // home-node object with that sequence and statics_[cls] the static ref of
  // that class (0: not seen); others_ maps every other ref, and
  // method_index_ every method but the invalid one. refs[0, indexed_refs_)
  // and methods[0, indexed_methods_) are reflected in the index.
  std::vector<std::uint32_t> dense_;
  std::vector<std::uint32_t> statics_;
  std::unordered_map<TraceRef, std::uint32_t, RefHash> others_;
  std::unordered_map<std::uint32_t, std::uint16_t> method_index_;
  std::uint64_t home_node_ = kNoHome;
  std::size_t indexed_refs_ = 0;
  std::size_t indexed_methods_ = 0;
};

}  // namespace aide::emul
