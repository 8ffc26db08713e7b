// Tests for the trace model: recorder fidelity against live VM execution and
// the CSV round-trip.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <stdexcept>

#include "apps/apps.hpp"
#include "emul/recorder.hpp"
#include "emul/trace.hpp"
#include "tests/test_util.hpp"

namespace aide::emul {
namespace {

using aide::test::make_test_registry;
using vm::ObjectRef;
using vm::Value;
using vm::Vm;
using vm::VmConfig;

static_assert(sizeof(TraceEvent) == 24);

TEST(RecorderTest, CapturesAllocInvokeAccessExit) {
  auto reg = make_test_registry();
  SimClock clock;
  VmConfig cfg;
  cfg.heap_capacity = 1 << 20;
  Vm vm(cfg, reg, clock);
  TraceRecorder rec;
  vm.add_hooks(&rec);

  const ObjectRef counter = vm.new_object("Counter");
  vm.call(counter, "inc");

  const Trace& t = rec.trace();
  ASSERT_FALSE(t.empty());

  int allocs = 0, invokes = 0, accesses = 0, enters = 0, exits = 0;
  for (const auto& e : t.events) {
    switch (e.type) {
      case TraceEventType::alloc: ++allocs; break;
      case TraceEventType::invoke: ++invokes; break;
      case TraceEventType::access: ++accesses; break;
      case TraceEventType::method_enter: ++enters; break;
      case TraceEventType::method_exit: ++exits; break;
      default: break;
    }
  }
  EXPECT_EQ(allocs, 1);
  EXPECT_EQ(invokes, 1);
  EXPECT_EQ(accesses, 2);  // get + put of the counter field
  EXPECT_EQ(enters, exits);
  EXPECT_EQ(enters, 1);
}

TEST(RecorderTest, FlagsEncodeMethodKind) {
  auto reg = make_test_registry();
  SimClock clock;
  VmConfig cfg;
  Vm vm(cfg, reg, clock);
  TraceRecorder rec;
  vm.add_hooks(&rec);

  const ObjectRef device = vm.new_object("Device");
  vm.call(device, "beep");                         // native
  vm.call_static("Util", "twice", {Value{1}});     // native static stateless
  vm.call_static("Calc", "add", {Value{1}, Value{2}});  // managed static

  std::vector<TraceEvent> invokes;
  for (const auto& e : rec.trace().events) {
    if (e.type == TraceEventType::invoke) invokes.push_back(e);
  }
  ASSERT_EQ(invokes.size(), 3u);
  EXPECT_TRUE(invokes[0].flags & kFlagNative);
  EXPECT_FALSE(invokes[0].flags & kFlagStatic);
  EXPECT_TRUE(invokes[1].flags & kFlagNative);
  EXPECT_TRUE(invokes[1].flags & kFlagStatic);
  EXPECT_TRUE(invokes[1].flags & kFlagStateless);
  EXPECT_FALSE(invokes[2].flags & kFlagNative);
  EXPECT_TRUE(invokes[2].flags & kFlagStatic);
}

TEST(RecorderTest, GcEventsCarryHeapFigures) {
  auto reg = make_test_registry();
  SimClock clock;
  VmConfig cfg;
  cfg.heap_capacity = 1 << 20;
  Vm vm(cfg, reg, clock);
  TraceRecorder rec;
  vm.add_hooks(&rec);

  vm.new_object("Pair");
  vm.clear_driver_roots();
  vm.collect_garbage();

  const Trace& t = rec.trace();
  const auto& events = t.events;
  auto it = std::find_if(events.begin(), events.end(), [](const TraceEvent& e) {
    return e.type == TraceEventType::gc;
  });
  ASSERT_NE(it, events.end());
  const auto i = static_cast<std::size_t>(it - events.begin());
  EXPECT_EQ(t.at(i).aux1, 1 << 20);  // capacity
  EXPECT_GT(t.at(i).aux2, 0);        // freed the pair
}

TEST(RecorderTest, SelfTimeRecordedInExit) {
  auto reg = make_test_registry();
  SimClock clock;
  VmConfig cfg;
  Vm vm(cfg, reg, clock);
  TraceRecorder rec;
  vm.add_hooks(&rec);
  const ObjectRef counter = vm.new_object("Counter");
  vm.call(counter, "busy", {Value{500}});

  for (const auto& e : rec.trace().events) {
    if (e.type == TraceEventType::method_exit) {
      EXPECT_GE(e.bytes, sim_us(500));
      return;
    }
  }
  FAIL() << "no method_exit recorded";
}

TEST(RecorderTest, TakeAndClear) {
  auto reg = make_test_registry();
  SimClock clock;
  Vm vm(VmConfig{}, reg, clock);
  TraceRecorder rec;
  vm.add_hooks(&rec);
  vm.new_object("Pair");
  const Trace t = rec.take();
  EXPECT_FALSE(t.empty());
  EXPECT_TRUE(rec.trace().empty());
}

TEST(TraceCsvTest, RoundTripPreservesEvents) {
  Trace t;
  TraceRecord a;
  a.type = TraceEventType::invoke;
  a.flags = kFlagNative | kFlagStatic;
  a.t = 123456789;
  a.cls_a = ClassId{3};
  a.cls_b = ClassId{9};
  a.obj_a = ObjectId{0xFFFF000011ULL};
  a.obj_b = ObjectId{7};
  a.method = MethodId{2};
  a.bytes = -5;
  a.aux1 = 42;
  a.aux2 = -42;
  t.append(a);
  TraceRecord b;
  b.type = TraceEventType::gc;
  b.t = 999;
  b.bytes = 1000;
  b.aux1 = 2000;
  b.aux2 = 300;
  t.append(b);

  std::stringstream ss;
  t.save_csv(ss);
  const Trace got = Trace::load_csv(ss);

  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got.at(0).type, a.type);
  EXPECT_EQ(got.at(0).flags, a.flags);
  EXPECT_EQ(got.at(0).t, a.t);
  EXPECT_EQ(got.at(0).cls_a, a.cls_a);
  EXPECT_EQ(got.at(0).cls_b, a.cls_b);
  EXPECT_EQ(got.at(0).obj_a, a.obj_a);
  EXPECT_EQ(got.at(0).obj_b, a.obj_b);
  EXPECT_EQ(got.at(0).method, a.method);
  EXPECT_EQ(got.at(0).bytes, a.bytes);
  EXPECT_EQ(got.at(0).aux1, a.aux1);
  EXPECT_EQ(got.at(0).aux2, a.aux2);
  EXPECT_EQ(got.at(1).type, b.type);
  EXPECT_EQ(got.at(1).bytes, 1000);
}

TEST(TraceCsvTest, EmptyTrace) {
  Trace t;
  std::stringstream ss;
  t.save_csv(ss);
  const Trace got = Trace::load_csv(ss);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(got.duration(), 0);
}

TEST(TraceCsvTest, RecordedTraceRoundTrips) {
  auto reg = make_test_registry();
  SimClock clock;
  Vm vm(VmConfig{}, reg, clock);
  TraceRecorder rec;
  vm.add_hooks(&rec);
  const ObjectRef counter = vm.new_object("Counter");
  vm.call(counter, "addMany", {Value{5}});

  std::stringstream ss;
  rec.trace().save_csv(ss);
  const Trace got = Trace::load_csv(ss);
  ASSERT_EQ(got.size(), rec.trace().size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.at(i).type, rec.trace().at(i).type);
    EXPECT_EQ(got.at(i).bytes, rec.trace().at(i).bytes);
    EXPECT_EQ(got.at(i).obj_a, rec.trace().at(i).obj_a);
  }
}

TEST(TraceTest, DurationIsLastEventTime) {
  Trace t;
  TraceRecord e;
  e.t = 5;
  t.append(e);
  e.t = 77;
  t.append(e);
  EXPECT_EQ(t.duration(), 77);
}

// --- packed storage ----------------------------------------------------------

// Keeps every hook event as the wide record the recorder is specified to
// store, independently of Trace's packing.
class WideObserver : public vm::VmHooks {
 public:
  std::vector<TraceRecord> records;

  void on_invoke(const vm::InvokeEvent& ev) override {
    TraceRecord r;
    r.type = TraceEventType::invoke;
    r.t = ev.t;
    r.cls_a = ev.caller_cls;
    r.obj_a = ev.caller_obj;
    r.cls_b = ev.callee_cls;
    r.obj_b = ev.callee_obj;
    r.method = ev.method;
    r.bytes = static_cast<std::int64_t>(ev.bytes);
    r.flags = static_cast<std::uint8_t>((ev.is_native ? kFlagNative : 0) |
                                        (ev.is_static ? kFlagStatic : 0) |
                                        (ev.is_stateless ? kFlagStateless : 0));
    records.push_back(r);
  }
  void on_access(const vm::AccessEvent& ev) override {
    TraceRecord r;
    r.type = TraceEventType::access;
    r.t = ev.t;
    r.cls_a = ev.from_cls;
    r.obj_a = ev.from_obj;
    r.cls_b = ev.to_cls;
    r.obj_b = ev.to_obj;
    r.bytes = static_cast<std::int64_t>(ev.bytes);
    r.flags = static_cast<std::uint8_t>((ev.is_write ? kFlagWrite : 0) |
                                        (ev.is_static ? kFlagStatic : 0));
    records.push_back(r);
  }
  void on_method_enter(NodeId, ClassId cls, ObjectId obj, MethodId m,
                       SimTime t) override {
    records.push_back(object_event(TraceEventType::method_enter, t, cls, obj));
    records.back().method = m;
  }
  void on_method_exit(NodeId, ClassId cls, ObjectId obj, MethodId m,
                      SimDuration self_time, SimTime t) override {
    records.push_back(object_event(TraceEventType::method_exit, t, cls, obj));
    records.back().method = m;
    records.back().bytes = self_time;
  }
  void on_alloc(NodeId, ObjectId obj, ClassId cls, std::int64_t bytes,
                SimTime t) override {
    records.push_back(object_event(TraceEventType::alloc, t, cls, obj));
    records.back().bytes = bytes;
  }
  void on_resize(NodeId, ObjectId obj, ClassId cls,
                 std::int64_t delta) override {
    records.push_back(object_event(TraceEventType::resize, last_t(), cls, obj));
    records.back().aux1 = delta;
  }
  void on_free(NodeId, ObjectId obj, ClassId cls, std::int64_t bytes,
               SimTime t) override {
    records.push_back(object_event(TraceEventType::free_obj, t, cls, obj));
    records.back().bytes = bytes;
  }
  void on_gc(NodeId, const vm::GcReport& report) override {
    TraceRecord r;
    r.type = TraceEventType::gc;
    r.t = last_t();
    r.bytes = report.used_after;
    r.aux1 = report.capacity;
    r.aux2 = report.freed;
    records.push_back(r);
  }

 private:
  SimTime last_t() const { return records.empty() ? 0 : records.back().t; }
  static TraceRecord object_event(TraceEventType type, SimTime t, ClassId cls,
                                  ObjectId obj) {
    TraceRecord r;
    r.type = type;
    r.t = t;
    r.cls_a = cls;
    r.obj_a = obj;
    return r;
  }
};

TraceRecord invoke_between(ObjectId a, ObjectId b, SimTime t) {
  TraceRecord r;
  r.type = TraceEventType::invoke;
  r.t = t;
  r.cls_a = ClassId{1};
  r.cls_b = ClassId{2};
  r.obj_a = a;
  r.obj_b = b;
  r.method = MethodId{3};
  r.bytes = 16;
  return r;
}

Trace csv_round_trip(const Trace& t) {
  std::stringstream ss;
  t.save_csv(ss);
  return Trace::load_csv(ss);
}

TEST(TracePackingTest, ForeignNodeBitsAndHighSequencesRoundTrip) {
  const ObjectId home{(std::uint64_t{1} << 48) | 5};
  const ObjectId home_high{(std::uint64_t{1} << 48) | (std::uint64_t{1} << 24)};
  const ObjectId home_top{(std::uint64_t{1} << 48) | ((std::uint64_t{1} << 48) - 2)};
  const ObjectId foreign{(std::uint64_t{2} << 48) | 5};
  const ObjectId foreign_high{(std::uint64_t{0xFFFE} << 48) | 0x123456789AULL};
  const ObjectId zero{0};
  const std::vector<ObjectId> ids = {home,       home_high,    home_top,
                                     foreign,    foreign_high, zero,
                                     ObjectId::invalid()};
  Trace t;
  std::vector<TraceRecord> want;
  SimTime now = 0;
  for (int round = 0; round < 2; ++round) {
    for (const ObjectId a : ids) {
      for (const ObjectId b : ids) {
        want.push_back(invoke_between(a, b, ++now));
        t.append(want.back());
      }
    }
  }
  // Each distinct (id, class) pair is stored once, after the reserved ref 0;
  // the invalid id under each class is a static ref.
  EXPECT_EQ(t.refs.size(), 1 + 2 * ids.size());
  EXPECT_EQ(t.refs.front(), TraceRef{});
  ASSERT_EQ(t.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(t.at(i), want[i]);

  const Trace got = csv_round_trip(t);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got.at(i), want[i]);
}

TEST(TracePackingTest, AuxValuesRoundTripOnNonGcEvents) {
  Trace t;
  TraceRecord access = invoke_between(ObjectId{1}, ObjectId{2}, 10);
  access.type = TraceEventType::access;
  access.flags = kFlagWrite;
  access.aux1 = -7;
  access.aux2 = std::int64_t{1} << 40;
  TraceRecord plain = invoke_between(ObjectId{2}, ObjectId{1}, 11);
  TraceRecord exit_only_aux2;
  exit_only_aux2.type = TraceEventType::method_exit;
  exit_only_aux2.t = 12;
  exit_only_aux2.aux2 = 99;
  for (const TraceRecord& r : {access, plain, exit_only_aux2}) t.append(r);

  ASSERT_EQ(t.aux.size(), 2u);  // plain carries no aux payload
  EXPECT_EQ(t.aux[0].event, 0u);
  EXPECT_EQ(t.aux[1].event, 2u);
  EXPECT_EQ(t.events[0].flags, kFlagWrite | kFlagAux);
  EXPECT_EQ(t.events[1].flags, 0);
  EXPECT_EQ(t.at(0), access);
  EXPECT_EQ(t.at(1), plain);
  EXPECT_EQ(t.at(2), exit_only_aux2);

  const Trace got = csv_round_trip(t);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got.at(0), access);
  EXPECT_EQ(got.at(1), plain);
  EXPECT_EQ(got.at(2), exit_only_aux2);
}

TEST(TracePackingTest, ClearAndTakeLeaveNoIndexState) {
  auto reg = make_test_registry();
  SimClock clock;
  Vm vm(VmConfig{}, reg, clock);
  TraceRecorder rec;
  vm.add_hooks(&rec);
  vm.call(vm.new_object("Counter"), "addMany", {Value{5}});
  EXPECT_GT(rec.trace().index_bytes(), 0u);

  const Trace taken = rec.take();
  EXPECT_FALSE(taken.empty());
  EXPECT_EQ(taken.index_bytes(), 0u);
  EXPECT_EQ(rec.trace().index_bytes(), 0u);
  EXPECT_TRUE(rec.trace().refs.empty());
  EXPECT_TRUE(rec.trace().methods.empty());
  EXPECT_TRUE(rec.trace().aux.empty());

  vm.call(vm.new_object("Counter"), "inc");
  EXPECT_GT(rec.trace().index_bytes(), 0u);
  rec.clear();
  EXPECT_TRUE(rec.trace().empty());
  EXPECT_TRUE(rec.trace().refs.empty());
  EXPECT_TRUE(rec.trace().methods.empty());
  EXPECT_TRUE(rec.trace().aux.empty());
  EXPECT_EQ(rec.trace().index_bytes(), 0u);

  Trace foreign;
  foreign.append(invoke_between(ObjectId{std::uint64_t{3} << 48},
                                ObjectId{std::uint64_t{1} << 30}, 1));
  EXPECT_GT(foreign.index_bytes(), 0u);
  foreign.clear();
  EXPECT_EQ(foreign.index_bytes(), 0u);

  EXPECT_EQ(csv_round_trip(taken).index_bytes(), 0u);
}

TEST(TracePackingTest, AppendAfterDroppedIndexReusesRefAndMethodTables) {
  const ObjectId home{4};
  const ObjectId foreign{(std::uint64_t{9} << 48) | 1};
  TraceRecord other_class = invoke_between(home, foreign, 2);
  other_class.cls_a = ClassId{5};  // home under a second class
  other_class.method = MethodId{8};
  TraceRecord static_ref = invoke_between(ObjectId::invalid(), home, 3);
  static_ref.cls_a = ClassId{6};
  static_ref.method = MethodId::invalid();
  Trace t;
  for (const TraceRecord& r :
       {invoke_between(home, foreign, 1), other_class, static_ref}) {
    t.append(r);
  }
  const std::size_t refs = t.refs.size();
  const std::size_t methods = t.methods.size();
  EXPECT_EQ(refs, 6u);  // ref 0, (4,1), (9:1,2), (4,5), static 6, (4,2)
  EXPECT_EQ(methods, 3u);

  t.drop_index();
  EXPECT_EQ(t.index_bytes(), 0u);
  std::vector<TraceRecord> again = {invoke_between(foreign, home, 4),
                                    other_class, static_ref,
                                    invoke_between(home, foreign, 5)};
  for (TraceRecord& r : again) {
    r.t += 10;
    t.append(r);
  }
  EXPECT_GT(t.index_bytes(), 0u);
  // Only (9:1, 1) is a new pair; every other operand and method is found in
  // the rebuilt index.
  EXPECT_EQ(t.refs.size(), refs + 1);
  EXPECT_EQ(t.methods.size(), methods);
  for (std::size_t i = 0; i < again.size(); ++i) {
    EXPECT_EQ(t.at(3 + i), again[i]);
  }

  // A second drop then a brand-new method and static ref: each is added
  // once, after the rebuilt index has seen every earlier entry.
  t.drop_index();
  TraceRecord fresh = static_ref;
  fresh.cls_a = ClassId{7};
  fresh.method = MethodId{12};
  t.append(fresh);
  t.append(fresh);
  t.append(static_ref);
  EXPECT_EQ(t.refs.size(), refs + 2);
  EXPECT_EQ(t.methods.size(), methods + 1);
  EXPECT_EQ(t.at(t.size() - 2), fresh);
  EXPECT_EQ(t.at(t.size() - 1), static_ref);
}

// Interning indexes beyond the object array: the static-ref and method
// indexes count in index_bytes() and are released by drop_index(), clear()
// and the recorder's take().
TEST(TracePackingTest, StaticAndMethodIndexesAreBuildTimeState) {
  TraceRecord static_only;
  static_only.type = TraceEventType::method_enter;
  static_only.cls_a = ClassId{3};
  Trace statics;
  statics.append(static_only);
  EXPECT_GT(statics.index_bytes(), 0u);
  statics.drop_index();
  EXPECT_EQ(statics.index_bytes(), 0u);

  TraceRecord method_only;
  method_only.type = TraceEventType::method_enter;
  method_only.method = MethodId{4};
  Trace methods;
  methods.append(method_only);
  EXPECT_GT(methods.index_bytes(), 0u);
  methods.clear();
  EXPECT_EQ(methods.index_bytes(), 0u);
  EXPECT_TRUE(methods.methods.empty());

  TraceRecorder rec;
  rec.on_method_enter(NodeId{1}, ClassId{3}, ObjectId::invalid(), MethodId{2},
                      1);
  EXPECT_GT(rec.trace().index_bytes(), 0u);
  const Trace taken = rec.take();
  EXPECT_EQ(taken.index_bytes(), 0u);
  EXPECT_EQ(rec.trace().index_bytes(), 0u);
  EXPECT_EQ(taken.refs.size(), 2u);
  EXPECT_EQ(taken.methods.size(), 2u);
  EXPECT_EQ(taken.at(0).cls_a, ClassId{3});
  EXPECT_EQ(taken.at(0).obj_a, ObjectId::invalid());
  EXPECT_EQ(taken.at(0).method, MethodId{2});
}

// bytes outside [0, 2^32) escape, in full, to the aux side table; values
// inside stay on the event.
TEST(TracePackingTest, WideAndNegativeBytesRoundTripThroughAux) {
  constexpr std::int64_t kTwo32 = std::int64_t{1} << 32;
  const std::vector<std::int64_t> values = {
      0,  kTwo32 - 1, kTwo32, std::int64_t{57} * 1'000'000'000,
      -1, -kTwo32,    std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::min()};
  Trace t;
  std::vector<TraceRecord> want;
  for (const std::int64_t v : values) {
    TraceRecord r = invoke_between(ObjectId{1}, ObjectId{2},
                                   static_cast<SimTime>(want.size()));
    r.type = TraceEventType::method_exit;
    r.bytes = v;
    want.push_back(r);
    t.append(r);
  }
  ASSERT_EQ(t.aux.size(), values.size() - 2);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const bool inline_bytes = values[i] >= 0 && values[i] < kTwo32;
    EXPECT_EQ((t.events[i].flags & kFlagAux) != 0, !inline_bytes) << i;
    EXPECT_EQ(t.events[i].bytes,
              inline_bytes ? static_cast<std::uint32_t>(values[i]) : 0u);
    EXPECT_EQ(t.at(i), want[i]);
  }
  const Trace got = csv_round_trip(t);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got.at(i), want[i]);
}

TEST(TracePackingTest, WideBytesEventKeepsItsAuxPayloads) {
  TraceRecord gc;
  gc.type = TraceEventType::gc;
  gc.t = 5;
  gc.bytes = std::int64_t{3} << 32;
  gc.aux1 = std::int64_t{1} << 36;
  gc.aux2 = -9;
  TraceRecord narrow = gc;
  narrow.t = 6;
  narrow.bytes = 1000;
  Trace t;
  t.append(gc);
  t.append(narrow);
  ASSERT_EQ(t.aux.size(), 2u);  // one entry per event, bytes included
  EXPECT_EQ(t.aux[0].bytes, gc.bytes);
  EXPECT_EQ(t.aux[0].aux1, gc.aux1);
  EXPECT_EQ(t.aux[0].aux2, gc.aux2);
  EXPECT_EQ(t.at(0), gc);
  EXPECT_EQ(t.at(1), narrow);
  const Trace got = csv_round_trip(t);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got.at(0), gc);
  EXPECT_EQ(got.at(1), narrow);
}

TEST(TracePackingTest, StaticRefsInternOnePerClass) {
  Trace t;
  std::vector<TraceRecord> want;
  for (int round = 0; round < 2; ++round) {
    for (std::uint32_t cls = 0; cls < 5; ++cls) {
      TraceRecord r;
      r.type = TraceEventType::access;
      r.flags = kFlagStatic;
      r.t = static_cast<SimTime>(want.size());
      r.cls_a = ClassId{cls};
      r.cls_b = ClassId{cls + 1};
      r.bytes = 8;
      want.push_back(r);
      t.append(r);
    }
  }
  // Ref 0 plus one static ref for each of classes 0..5.
  ASSERT_EQ(t.refs.size(), 7u);
  for (std::uint32_t i = 1; i < t.refs.size(); ++i) {
    EXPECT_EQ(t.refs[i], (TraceRef{ObjectId::invalid(), ClassId{i - 1}}));
  }
  for (std::uint32_t cls = 0; cls < 5; ++cls) {
    EXPECT_EQ(t.events[cls].a, cls + 1);
    EXPECT_EQ(t.events[cls].b, cls + 2);
    EXPECT_EQ(t.events[cls + 5].a, cls + 1);  // the repeat reuses the ref
  }
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(t.at(i), want[i]);
  const Trace got = csv_round_trip(t);
  EXPECT_EQ(got.refs, t.refs);
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got.at(i), want[i]);
}

TEST(TracePackingTest, ObjectUnderTwoClassesGetsTwoRefs) {
  const ObjectId home{(std::uint64_t{1} << 48) | 5};
  const ObjectId foreign{(std::uint64_t{2} << 48) | 5};
  Trace t;
  std::vector<TraceRecord> want;
  for (int round = 0; round < 2; ++round) {
    for (const ObjectId id : {home, foreign}) {
      for (const std::uint32_t cls : {11u, 12u}) {
        TraceRecord r;
        r.type = TraceEventType::alloc;
        r.t = static_cast<SimTime>(want.size());
        r.obj_a = id;
        r.cls_a = ClassId{cls};
        r.bytes = 24;
        want.push_back(r);
        t.append(r);
      }
    }
  }
  ASSERT_EQ(t.refs.size(), 5u);  // ref 0 and four (object, class) pairs
  EXPECT_NE(t.events[0].a, t.events[1].a);
  EXPECT_NE(t.events[2].a, t.events[3].a);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(t.events[i + 4].a, t.events[i].a);
  }
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(t.at(i), want[i]);
  const Trace got = csv_round_trip(t);
  EXPECT_EQ(got.refs, t.refs);
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got.at(i), want[i]);
}

TEST(TracePackingTest, MethodTableOverflowThrowsLengthError) {
  constexpr std::uint32_t kMethods = 1u << 16;
  Trace t;
  TraceRecord r;
  r.type = TraceEventType::method_enter;
  // Index 0 is MethodId::invalid(), so 2^16 - 1 distinct methods fit.
  for (std::uint32_t m = 0; m + 1 < kMethods; ++m) {
    r.method = MethodId{m};
    t.append(r);
  }
  EXPECT_EQ(t.methods.size(), kMethods);
  r.method = MethodId{kMethods - 1};
  EXPECT_THROW(t.append(r), std::length_error);
  EXPECT_EQ(t.size(), kMethods - 1);
  EXPECT_EQ(t.methods.size(), kMethods);
  // Known methods still append; the last stored one decodes in full.
  r.method = MethodId{kMethods - 2};
  t.append(r);
  EXPECT_EQ(t.at(t.size() - 1).method, MethodId{kMethods - 2});
  r.method = MethodId{kMethods};
  EXPECT_THROW(t.append(r), std::length_error);
}

// Record -> CSV -> load for every app at the disconnect sweep's reduced
// inputs: the loaded trace decodes to exactly the records the hooks saw.
TEST(TracePackingTest, AllAppsRecordCsvLoadMatchesObservedRecords) {
  apps::AppParams p;
  p.doc_bytes = 48 * 1024;
  p.edits = 16;
  p.scrolls = 20;
  p.image_size = 64;
  p.layers = 3;
  p.filter_passes = 3;
  p.atoms = 80;
  p.iterations = 4;
  p.field_size = 49;
  p.frames = 4;
  p.columns = 32;
  p.trace_w = 16;
  p.trace_h = 12;
  p.spheres = 6;
  for (const apps::AppInfo& app : apps::all_apps()) {
    SCOPED_TRACE(app.name);
    auto reg = std::make_shared<vm::ClassRegistry>();
    app.register_classes(*reg);
    SimClock clock;
    VmConfig cfg;
    cfg.heap_capacity = std::int64_t{64} << 20;
    cfg.gc_alloc_count_threshold = 1024;  // dense GC reports: aux traffic
    Vm vm(cfg, reg, clock);
    WideObserver seen;
    TraceRecorder rec;
    vm.add_hooks(&seen);
    vm.add_hooks(&rec);
    app.run(vm, p);
    const Trace recorded = rec.take();
    ASSERT_FALSE(seen.records.empty());
    ASSERT_EQ(recorded.size(), seen.records.size());

    const Trace got = csv_round_trip(recorded);
    ASSERT_EQ(got.size(), seen.records.size());
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (!(got.at(i) == seen.records[i])) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u);
  }
}

// --- CSV validation -----------------------------------------------------------

constexpr const char* kCsvHeader =
    "type,flags,t,cls_a,cls_b,obj_a,obj_b,method,bytes,aux1,aux2\n";

TEST(TraceCsvTest, RejectsUnknownEventType) {
  std::stringstream ok(std::string(kCsvHeader) + "7,0,1,0,0,1,2,0,5,0,0\n");
  EXPECT_EQ(Trace::load_csv(ok).size(), 1u);
  std::stringstream bad(std::string(kCsvHeader) + "9,0,1,0,0,1,2,0,5,0,0\n");
  EXPECT_THROW(Trace::load_csv(bad), std::runtime_error);
}

TEST(TraceCsvTest, RejectsUndefinedFlagBits) {
  std::stringstream ok(std::string(kCsvHeader) + "3,15,1,0,0,1,2,0,5,0,0\n");
  EXPECT_EQ(Trace::load_csv(ok).at(0).flags, kRecordFlags);
  std::stringstream bad(std::string(kCsvHeader) + "3,16,1,0,0,1,2,0,5,0,0\n");
  EXPECT_THROW(Trace::load_csv(bad), std::runtime_error);
}

TEST(TraceCsvTest, RejectsAuxFlagOutsideAuxColumns) {
  std::stringstream bad(std::string(kCsvHeader) + "7,128,1,0,0,1,2,0,5,0,0\n");
  EXPECT_THROW(Trace::load_csv(bad), std::runtime_error);
  // The aux columns alone set the bit on the packed event.
  std::stringstream ok(std::string(kCsvHeader) + "7,0,1,0,0,1,2,0,5,6,7\n");
  const Trace t = Trace::load_csv(ok);
  EXPECT_EQ(t.events.at(0).flags, kFlagAux);
  EXPECT_EQ(t.at(0).flags, 0);
  EXPECT_EQ(t.at(0).aux2, 7);
}

}  // namespace
}  // namespace aide::emul
