// End-to-end integration tests reproducing the paper's headline behaviours
// at reduced scale:
//   * the section 5.1 memory-avoidance scenario (fail standalone, survive
//     with AIDE, offloading most of the heap at low predicted bandwidth),
//   * trigger-driven (not just rescue-driven) offloading,
//   * the prototype -> trace -> emulator pipeline consistency,
//   * distributed GC across an application-scale object graph,
//   * the provisional cut: an offload decided before the execution graph had
//     any history is re-decided once real traffic crosses it (the Biomer
//     cliff), and an informed one is left alone.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "apps/apps.hpp"
#include "apps/stdlib.hpp"
#include "common/error.hpp"
#include "emul/emulator.hpp"
#include "emul/recorder.hpp"
#include "netsim/link.hpp"
#include "platform/platform.hpp"
#include "vm/vm.hpp"

namespace aide {
namespace {

apps::AppParams reduced_params() {
  apps::AppParams p;
  p.doc_bytes = 128 * 1024;
  p.edits = 30;
  p.scrolls = 40;
  p.image_size = 96;
  p.layers = 4;
  p.filter_passes = 4;
  p.atoms = 120;
  p.iterations = 6;
  p.field_size = 65;
  p.frames = 6;
  p.columns = 48;
  p.trace_w = 24;
  p.trace_h = 18;
  p.spheres = 8;
  return p;
}

// Record a standalone single-VM trace for an app (the paper's trace
// acquisition: "running the application to completion on a single PC").
emul::Trace record_trace(const apps::AppInfo& app,
                         const apps::AppParams& params,
                         std::shared_ptr<vm::ClassRegistry> reg) {
  SimClock clock;
  vm::VmConfig cfg;
  cfg.heap_capacity = 64 << 20;
  cfg.gc_alloc_count_threshold = 512;
  cfg.gc_alloc_bytes_divisor = 64;
  vm::Vm vm(cfg, reg, clock);
  emul::TraceRecorder recorder;
  vm.add_hooks(&recorder);
  app.run(vm, params);
  return recorder.take();
}

TEST(MemoryAvoidanceIntegrationTest, JavaNoteScenario) {
  const auto& app = apps::app_by_name("JavaNote");
  const auto params = reduced_params();
  const std::int64_t tight_heap = 1100 * 1024;

  // 1. Standalone: out of memory.
  {
    auto reg = std::make_shared<vm::ClassRegistry>();
    app.register_classes(*reg);
    SimClock clock;
    vm::VmConfig cfg;
    cfg.heap_capacity = tight_heap;
    vm::Vm vm(cfg, reg, clock);
    EXPECT_THROW(app.run(vm, params), VmError);
  }

  // 2. With the platform: completes, having offloaded.
  auto reg = std::make_shared<vm::ClassRegistry>();
  app.register_classes(*reg);
  platform::PlatformConfig cfg;
  cfg.client_heap = tight_heap;
  platform::Platform p(reg, cfg);
  app.run(p.client(), params);

  ASSERT_TRUE(p.offloaded());
  const auto& first = p.offloads().front();
  EXPECT_GT(first.objects_migrated, 0u);
  EXPECT_LT(first.client_heap_used_after, first.client_heap_used_before);
  // The freed amount respects the policy's minimum (20% of the heap).
  EXPECT_GE(first.decision.selected.offload_mem_bytes,
            static_cast<std::int64_t>(0.20 * tight_heap));
  // Predicted bandwidth is well under the link capacity (paper: ~100 KB/s
  // on an 11 Mbps link).
  EXPECT_LT(first.decision.predicted_bandwidth_bps, 11e6);
  // The partitioning heuristic runs in interactive time (paper: ~0.1 s).
  EXPECT_LT(first.decision.compute_seconds, 2.0);
}

TEST(MemoryAvoidanceIntegrationTest, SurrogateHoldsMigratedState) {
  const auto& app = apps::app_by_name("JavaNote");
  const auto params = reduced_params();
  auto reg = std::make_shared<vm::ClassRegistry>();
  app.register_classes(*reg);
  platform::PlatformConfig cfg;
  cfg.client_heap = 1100 * 1024;
  platform::Platform p(reg, cfg);
  app.run(p.client(), params);
  ASSERT_TRUE(p.offloaded());
  EXPECT_GT(p.surrogate().heap().used(), 0);
  EXPECT_GT(p.client().stub_count(), 0u);
  EXPECT_GT(p.client_endpoint().stats().rpcs_sent, 0u);
}

TEST(TriggerIntegrationTest, TriggerFiresBeforeHardExhaustion) {
  // With a generous threshold the trigger path (not the allocation-failure
  // rescue) performs the offload.
  const auto& app = apps::app_by_name("JavaNote");
  const auto params = reduced_params();
  auto reg = std::make_shared<vm::ClassRegistry>();
  app.register_classes(*reg);
  platform::PlatformConfig cfg;
  cfg.client_heap = 1400 * 1024;
  cfg.trigger.low_free_threshold = 0.30;
  cfg.trigger.consecutive_reports = 2;
  platform::Platform p(reg, cfg);
  app.run(p.client(), params);
  ASSERT_TRUE(p.offloaded());
  EXPECT_EQ(p.client().stats().low_memory_rescues, 0u);
}

TEST(EmulatorIntegrationTest, RecordedTraceReplaysConsistently) {
  const auto& app = apps::app_by_name("Tracer");
  const auto params = reduced_params();
  auto reg = std::make_shared<vm::ClassRegistry>();
  app.register_classes(*reg);
  const auto trace = record_trace(app, params, reg);
  ASSERT_GT(trace.size(), 1000u);

  // Replay without offloading: emulated time equals recorded time.
  emul::EmulatorConfig cfg;
  cfg.max_offloads = 0;
  cfg.surrogate_speedup = 1.0;
  cfg.heap_capacity = 64 << 20;
  emul::Emulator emu(reg, cfg);
  const auto result = emu.run(trace);
  EXPECT_EQ(result.emulated_time, result.base_time);
  EXPECT_EQ(result.base_time, trace.duration());
  EXPECT_GT(result.total_invocations, 0u);
}

TEST(EmulatorIntegrationTest, CpuOffloadingSpeedsUpTracer) {
  const auto& app = apps::app_by_name("Tracer");
  const auto params = reduced_params();
  auto reg = std::make_shared<vm::ClassRegistry>();
  app.register_classes(*reg);
  const auto trace = record_trace(app, params, reg);

  emul::EmulatorConfig cfg;
  cfg.heap_capacity = 64 << 20;
  cfg.trigger_mode = emul::TriggerMode::trace_fraction;
  cfg.eval_at_fraction = 0.10;
  cfg.objective = partition::Objective::speed_up;
  cfg.surrogate_speedup = 3.5;
  cfg.stateless_natives_local = true;
  cfg.arrays_as_objects = true;
  emul::Emulator emu(reg, cfg);
  const auto result = emu.run(trace);

  ASSERT_TRUE(result.offloaded() || !result.declined.empty());
  if (result.offloaded()) {
    EXPECT_LT(result.emulated_time, result.base_time);
  }
}

TEST(DistributedGcIntegrationTest, StubsReleasedAtApplicationScale) {
  // Run JavaNote with offloading, then drop everything and GC both sides:
  // all stubs and exports must drain.
  const auto& app = apps::app_by_name("JavaNote");
  const auto params = reduced_params();
  auto reg = std::make_shared<vm::ClassRegistry>();
  app.register_classes(*reg);
  platform::PlatformConfig cfg;
  cfg.client_heap = 1100 * 1024;
  platform::Platform p(reg, cfg);
  app.run(p.client(), params);
  ASSERT_TRUE(p.offloaded());

  // The app cleared its roots at the end; collect both heaps repeatedly to
  // let cross-VM release cascades settle.
  for (int i = 0; i < 4; ++i) {
    p.client().collect_garbage();
    p.surrogate().collect_garbage();
  }
  EXPECT_EQ(p.client().stub_count(), 0u);
  EXPECT_EQ(p.surrogate_endpoint().refs().export_count(), 0u);
  EXPECT_EQ(p.surrogate().heap().object_count(), 0u);
}

TEST(StressIntegrationTest, ManyOffloadCyclesStayConsistent) {
  // Alternate forced offloads in both directions under live mutation.
  auto reg = std::make_shared<vm::ClassRegistry>();
  apps::register_stdlib(*reg);
  platform::PlatformConfig cfg;
  cfg.client_heap = 8 << 20;
  cfg.auto_offload = false;
  platform::Platform p(reg, cfg);
  vm::Vm& client = p.client();

  const auto list = client.new_object("ArrayList");
  client.add_root(list);
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 20; ++i) {
      client.call(list, "add", {vm::Value{round * 100 + i}});
    }
    p.offload_now(std::int64_t{1});
  }
  const std::int64_t n = client.call(list, "size").as_int();
  ASSERT_EQ(n, 200);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(client.call(list, "get", {vm::Value{i}}).as_int(),
              (i / 20) * 100 + (i % 20));
  }
}

// --- provisional cut -----------------------------------------------------------

// The application alone on one generous VM: the transparency reference.
std::uint64_t local_checksum(const apps::AppInfo& app,
                             std::shared_ptr<const vm::ClassRegistry> reg,
                             const apps::AppParams& params) {
  SimClock clock;
  vm::VmConfig cfg;
  cfg.heap_capacity = 64 << 20;
  vm::Vm vm(cfg, std::move(reg), clock);
  return app.run(vm, params);
}

struct LiveRun {
  std::uint64_t checksum = 0;
  std::uint64_t reference = 0;
  SimTime end = 0;
  std::uint64_t link_bytes = 0;
  std::vector<platform::OffloadReport> offloads;
  std::vector<platform::RevisionReport> revisions;
  std::vector<platform::ReadmissionReport> readmissions;
  std::vector<platform::DisconnectReport> disconnects;
  platform::Platform::Mode mode = platform::Platform::Mode::connected;
  platform::Platform::ModeEdgeCounts edges{};
  std::size_t failures = 0;
  std::size_t stub_count = 0;
  std::vector<rpc::MigrationTrace> forward;  // client -> surrogate
  std::vector<rpc::MigrationTrace> back;     // surrogate -> client
};

// Offloads at the client's second GC, whatever the trigger says, so a run
// with a generous heap still gets an offload decided on almost no history.
class EarlyOffload : public vm::VmHooks {
 public:
  explicit EarlyOffload(platform::Platform& p) : p_(p) {}
  void on_gc(NodeId node, const vm::GcReport&) override {
    if (node != NodeId{1} || ++cycles_ < 2) return;
    if (p_.offloaded() || p_.mode() != platform::Platform::Mode::connected) {
      return;
    }
    p_.offload_now(std::int64_t{1});
  }

 private:
  platform::Platform& p_;
  int cycles_ = 0;
};

LiveRun run_live(const char* name, const apps::AppParams& params,
                 const platform::PlatformConfig& cfg,
                 bool early_offload = false) {
  const auto& app = apps::app_by_name(name);
  auto reg = std::make_shared<vm::ClassRegistry>();
  app.register_classes(*reg);
  LiveRun r;
  r.reference = local_checksum(app, reg, params);
  platform::Platform p(reg, cfg);
  EarlyOffload early(p);
  if (early_offload) p.client().add_hooks(&early);
  r.checksum = app.run(p.client(), params);
  if (early_offload) p.client().remove_hooks(&early);
  r.end = p.elapsed();
  r.link_bytes = p.link().stats().bytes;
  r.offloads = p.offloads();
  r.revisions = p.revisions();
  r.readmissions = p.readmissions();
  r.disconnects = p.disconnects();
  r.mode = p.mode();
  r.edges = p.mode_edges();
  r.failures = p.failures().size();
  r.stub_count = p.client().stub_count();
  r.forward = p.client_endpoint().migrations();
  r.back = p.surrogate_endpoint().migrations();
  return r;
}

// The paper's setup (6 MB heap, default trigger, WaveLAN) at `scale`.
LiveRun run_paper(const char* name, double scale,
                  platform::PlatformConfig cfg = {}) {
  apps::AppParams params;
  params.scale = scale;
  return run_live(name, params, cfg);
}

TEST(ProvisionalCutTest, BlindBiomerOffloadIsRevisedOffTheCliff) {
  // Above ~1.027x paper size Biomer's load phase exhausts the heap before
  // any compute is charged, so the rescue offload is decided on a 5-node
  // graph with no traffic across its cut. Left alone it ships the
  // minimizer's data away from the code that re-reads it every iteration
  // and takes 1250.7 s; revised once, it lands near the 1.0x run.
  const LiveRun paper = run_paper("Biomer", 1.0);
  const LiveRun cliff = run_paper("Biomer", 1.04);
  EXPECT_EQ(cliff.checksum, cliff.reference);
  ASSERT_EQ(cliff.offloads.size(), 1u);
  EXPECT_EQ(cliff.offloads[0].decision.selected.cut_weight, 0.0);
  ASSERT_EQ(cliff.revisions.size(), 1u);
  const platform::RevisionReport& rev = cliff.revisions[0];
  EXPECT_EQ(rev.predicted_rate, 0.0);
  EXPECT_GT(rev.measured_rate, 0.0);
  EXPECT_TRUE(rev.decision.offload);
  EXPECT_GT(rev.objects_forward, 0u);
  // Checked once per 2 s window after the blind migration completed.
  EXPECT_GE(rev.at, cliff.offloads[0].completed_at + sim_sec(2));
  EXPECT_LE(sim_to_seconds(cliff.end), 1.2 * sim_to_seconds(paper.end));
  EXPECT_LT(cliff.link_bytes, 2 * paper.link_bytes);
}

TEST(ProvisionalCutTest, InformedOffloadsAreNeverRevised) {
  // End time and link bytes of each run before cuts became provisional: an
  // offload whose cut traffic bears out its prediction must not move. (Dia's
  // row is from after remote array scans moved to strided read-ahead
  // windows; the offload decision itself did not change.)
  struct Case {
    const char* app;
    double scale;
    SimTime end;
    std::uint64_t link_bytes;
  };
  const Case cases[] = {
      {"JavaNote", 1.0, 143'653'377'799, 8'540'054},
      {"Dia", 1.0, 118'919'185'196, 6'009'182},
      {"Biomer", 1.0, 178'163'308'066, 10'010'570},
      {"JavaNote", 1.1, 153'439'883'723, 9'357'020},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.app) + " at " + std::to_string(c.scale));
    const LiveRun r = run_paper(c.app, c.scale);
    EXPECT_EQ(r.checksum, r.reference);
    EXPECT_EQ(r.offloads.size(), 1u);
    EXPECT_TRUE(r.revisions.empty());
    EXPECT_EQ(r.end, c.end);
    EXPECT_EQ(r.link_bytes, c.link_bytes);
  }
}

TEST(ProvisionalCutTest, LinkDeathMidRevisionRollsBackOrAdopts) {
  // JavaNote offloaded at its second GC on a heap that could hold it all:
  // the blind cut ships 5 objects, and the revision moves the editor's
  // working set both ways. Killing the link at each message boundary of
  // either leg must end dead, fully local and byte-identical.
  auto params = reduced_params();
  platform::PlatformConfig cfg;
  cfg.client_heap = 64 << 20;
  cfg.client_gc_alloc_count_threshold = 4;
  cfg.client_gc_alloc_bytes_divisor = 512;
  const LiveRun probe = run_live("JavaNote", params, cfg, true);
  ASSERT_EQ(probe.checksum, probe.reference);
  ASSERT_EQ(probe.revisions.size(), 1u);
  ASSERT_GT(probe.revisions[0].objects_forward, 0u);
  ASSERT_GT(probe.revisions[0].objects_back, 0u);
  ASSERT_EQ(probe.forward.size(), 2u);
  ASSERT_EQ(probe.back.size(), 1u);
  const rpc::MigrationTrace& fwd = probe.forward[1];
  const rpc::MigrationTrace& back = probe.back[0];

  const SimTime kill_points[] = {
      fwd.begin + 1,           // forward PREPARE in flight
      fwd.prepare_acked + 1,   // forward COMMIT applied, unacked
      back.begin + 1,          // pull-back PREPARE in flight
      back.prepare_acked + 1,  // pull-back COMMIT applied, unacked
  };
  for (const SimTime at : kill_points) {
    SCOPED_TRACE("link dead after " + std::to_string(at));
    platform::PlatformConfig faulty = cfg;
    faulty.fault_plan.dead_after = at;
    const LiveRun r = run_live("JavaNote", params, faulty, true);
    EXPECT_EQ(r.checksum, r.reference);
    EXPECT_EQ(r.mode, platform::Platform::Mode::dead);
    EXPECT_EQ(r.failures, 1u);
    EXPECT_EQ(r.revisions.size(), 1u);
    EXPECT_EQ(r.stub_count, 0u);
    EXPECT_EQ(r.edges[0][2], 1u);  // connected -> dead, once
  }
}

TEST(ProvisionalCutTest, ReAdmittedOffloadGetsAFreshWindow) {
  // The blind offload is revised at ~6.5 s; a 1 s outage at 10 s kills the
  // surrogate. Re-admission re-offloads, and that offload is provisional
  // again: it is checked, and revised, on its own.
  platform::PlatformConfig cfg;
  cfg.disconnect.readmit = true;
  cfg.fault_plan.outages.push_back({sim_sec(10), sim_sec(11)});
  const LiveRun r = run_paper("Biomer", 1.04, cfg);
  EXPECT_EQ(r.checksum, r.reference);
  ASSERT_EQ(r.readmissions.size(), 1u);
  ASSERT_EQ(r.offloads.size(), 2u);
  ASSERT_EQ(r.revisions.size(), 2u);
  EXPECT_LT(r.revisions[0].at, r.readmissions[0].at);
  EXPECT_GE(r.revisions[1].at, r.offloads[1].completed_at + sim_sec(2));
  EXPECT_EQ(r.mode, platform::Platform::Mode::connected);
}

TEST(ProvisionalCutTest, ReconciledOffloadGetsAFreshWindow) {
  // The same outage under disconnected operation: reconcile re-offloads,
  // and that offload gets its own window.
  platform::PlatformConfig cfg;
  cfg.disconnect.enabled = true;
  cfg.heartbeat.idle_after = sim_ms(100);
  cfg.fault_plan.outages.push_back({sim_sec(10), sim_sec(11)});
  const LiveRun r = run_paper("Biomer", 1.04, cfg);
  EXPECT_EQ(r.checksum, r.reference);
  ASSERT_EQ(r.disconnects.size(), 1u);
  ASSERT_TRUE(r.disconnects[0].resumed);
  ASSERT_EQ(r.offloads.size(), 2u);
  ASSERT_EQ(r.revisions.size(), 2u);
  EXPECT_LT(r.revisions[0].at, r.disconnects[0].at);
  EXPECT_GE(r.revisions[1].at, r.offloads[1].completed_at + sim_sec(2));
  EXPECT_EQ(r.mode, platform::Platform::Mode::connected);
}

}  // namespace
}  // namespace aide
