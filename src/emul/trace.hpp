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
// TraceRecord; a Trace stores each one packed into a 40-byte TraceEvent.
// Object ids become 32-bit indexes into the per-trace `objects` table, and
// the aux1/aux2 payloads that only GC and resize events use move to the
// sparse `aux` side table, marked on the event by kFlagAux. Interning an
// object id while appending costs one array load: ids of the recording VM
// (the node of the first id seen) are indexed directly by their sequence
// number; only foreign node bits and sequences >= 2^24 fall back to a map.
// That index is build-time state: the recorder's take() and load_csv drop it.
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
// Reserved for packed events: this event's aux1/aux2 are in Trace::aux.
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

// One event as a Trace stores it. Fields mean what TraceRecord's do, except
// that obj_a/obj_b index Trace::objects and aux1/aux2 live in Trace::aux.
struct TraceEvent {
  SimTime t = 0;
  std::int64_t bytes = 0;
  std::uint32_t obj_a = 0;
  std::uint32_t obj_b = 0;
  ClassId cls_a;
  ClassId cls_b;
  MethodId method;
  TraceEventType type{};
  std::uint8_t flags = 0;  // kRecordFlags bits, plus kFlagAux
};
static_assert(sizeof(TraceEvent) <= 40, "trace events must stay packed");

// The aux payloads of one event; Trace::aux is sorted by `event`.
struct TraceAux {
  std::uint64_t event = 0;  // index into Trace::events
  std::int64_t aux1 = 0;
  std::int64_t aux2 = 0;
};

class Trace {
 public:
  std::vector<TraceEvent> events;
  // Object table; index 0 is ObjectId::invalid() once any event is stored.
  std::vector<ObjectId> objects;
  std::vector<TraceAux> aux;

  [[nodiscard]] std::size_t size() const noexcept { return events.size(); }
  [[nodiscard]] bool empty() const noexcept { return events.empty(); }
  // Duration of the recorded run (time of the last event).
  [[nodiscard]] SimDuration duration() const noexcept {
    return events.empty() ? 0 : events.back().t;
  }

  // Packs and stores one event. `r.flags` must hold kRecordFlags bits only.
  void append(const TraceRecord& r) {
    assert((r.flags & ~kRecordFlags) == 0);
    if (objects.empty()) objects.push_back(ObjectId::invalid());
    TraceEvent e;
    e.t = r.t;
    e.bytes = r.bytes;
    e.obj_a = intern(r.obj_a);
    e.obj_b = intern(r.obj_b);
    e.cls_a = r.cls_a;
    e.cls_b = r.cls_b;
    e.method = r.method;
    e.type = r.type;
    e.flags = r.flags;
    if (r.aux1 != 0 || r.aux2 != 0) {
      e.flags |= kFlagAux;
      aux.push_back(TraceAux{events.size(), r.aux1, r.aux2});
    }
    events.push_back(e);
  }

  // Event `i` in its wide form. Throws std::out_of_range past the end.
  [[nodiscard]] TraceRecord at(std::size_t i) const;

  // Empties the trace and drops the interning index.
  void clear() noexcept;
  // Releases the interning index. The trace stays valid and appendable; the
  // next append that misses rebuilds the index from `objects`.
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

  std::uint32_t intern(ObjectId id) {
    const std::uint64_t v = id.value();
    if (v == ObjectId::invalid_value) return 0;
    const std::uint64_t seq = v & kSeqMask;
    if ((v >> 48) == home_node_ && seq < dense_.size() && dense_[seq] != 0) {
      return dense_[seq];
    }
    return intern_slow(id);
  }
  std::uint32_t intern_slow(ObjectId id);
  // The index slot of a valid id, created (holding 0) if absent.
  std::uint32_t& slot_for(std::uint64_t v);
  // Indexes objects[indexed_, size()).
  void reindex();

  // Build-time interning index. dense_[seq] is the object index of the
  // home-node id with that sequence (0: not seen); foreign_ maps every other
  // id. objects[0, indexed_) are reflected in the index.
  std::vector<std::uint32_t> dense_;
  std::unordered_map<std::uint64_t, std::uint32_t> foreign_;
  std::uint64_t home_node_ = kNoHome;
  std::size_t indexed_ = 0;
};

}  // namespace aide::emul
