// Tests for partitioning-policy evaluation: the free_memory objective
// (feasibility constraint + minimum-cut-cost selection, paper 5.1) and the
// speed_up objective (predicted-time selection and the "not beneficial → do
// not offload" decision, paper 5.2 / Biomer).
#include <gtest/gtest.h>

#include "emul/emulator.hpp"
#include "graph/exec_graph.hpp"
#include "partition/partitioner.hpp"
#include "partition/policy.hpp"
#include "platform/platform.hpp"

namespace aide::partition {
namespace {

using graph::ComponentKey;
using graph::EdgeInfo;
using graph::ExecGraph;

ComponentKey cls(std::uint32_t id) { return ComponentKey{ClassId{id}}; }

EdgeInfo edge(std::uint64_t bytes, std::uint64_t interactions = 1) {
  return EdgeInfo{.invocations = interactions, .accesses = 0, .bytes = bytes};
}

// A small app shape: pinned UI (0), view (1), data (2), bulk store (3).
// UI—view is hot; data/store are big and loosely coupled to the view.
ExecGraph sample_graph() {
  ExecGraph g;
  g.set_pinned(cls(0), true);
  g.add_memory(cls(0), 10'000, 5);
  g.add_memory(cls(1), 40'000, 10);
  g.add_memory(cls(2), 400'000, 50);
  g.add_memory(cls(3), 600'000, 3);
  g.add_self_time(cls(1), sim_ms(100));
  g.add_self_time(cls(2), sim_ms(800));
  g.add_self_time(cls(3), sim_ms(100));
  g.set_edge(cls(0), cls(1), edge(500'000, 2000));  // hot UI edge
  g.set_edge(cls(1), cls(2), edge(30'000, 300));
  g.set_edge(cls(2), cls(3), edge(200'000, 1000));  // data <-> store hot
  g.set_edge(cls(1), cls(3), edge(5'000, 50));
  return g;
}

PartitionRequest memory_request(std::int64_t min_free) {
  PartitionRequest req;
  req.objective = Objective::free_memory;
  req.min_free_bytes = min_free;
  req.history_duration = sim_sec(10);
  return req;
}

TEST(MemoryObjectiveTest, SelectsFeasibleMinimumCut) {
  const auto g = sample_graph();
  const auto d = decide_partitioning(g, memory_request(500'000));
  ASSERT_TRUE(d.offload);
  EXPECT_GE(d.selected.offload_mem_bytes, 500'000);
  // Offloading {2,3} (cut = edges 1-2 + 1-3) is far cheaper than splitting
  // the 2-3 pair or crossing the UI edge.
  EXPECT_TRUE(d.selected.offload.contains(cls(2)));
  EXPECT_TRUE(d.selected.offload.contains(cls(3)));
  EXPECT_FALSE(d.selected.offload.contains(cls(0)));
  EXPECT_FALSE(d.selected.offload.contains(cls(1)));
}

TEST(MemoryObjectiveTest, InfeasibleWhenNothingFreesEnough) {
  const auto g = sample_graph();
  const auto d = decide_partitioning(g, memory_request(10'000'000));
  EXPECT_FALSE(d.offload);
  EXPECT_EQ(d.candidates_feasible, 0u);
  EXPECT_GT(d.candidates_total, 0u);
}

TEST(MemoryObjectiveTest, PinnedNeverSelected) {
  const auto g = sample_graph();
  const auto d = decide_partitioning(g, memory_request(1));
  ASSERT_TRUE(d.offload);
  EXPECT_FALSE(d.selected.offload.contains(cls(0)));
}

TEST(MemoryObjectiveTest, PredictedBandwidthFromHistory) {
  const auto g = sample_graph();
  auto req = memory_request(500'000);
  req.history_duration = sim_sec(10);
  const auto d = decide_partitioning(g, req);
  ASSERT_TRUE(d.offload);
  // bandwidth = cut_bytes * 8 / 10s
  EXPECT_NEAR(d.predicted_bandwidth_bps,
              static_cast<double>(d.selected.cut_bytes) * 8.0 / 10.0, 1.0);
}

TEST(MemoryObjectiveTest, LowerMinFreeNeverIncreasesCutCost) {
  const auto g = sample_graph();
  const auto strict = decide_partitioning(g, memory_request(900'000));
  const auto loose = decide_partitioning(g, memory_request(100'000));
  ASSERT_TRUE(strict.offload);
  ASSERT_TRUE(loose.offload);
  EXPECT_LE(loose.selected.cut_weight, strict.selected.cut_weight);
  EXPECT_GE(loose.candidates_feasible, strict.candidates_feasible);
}

TEST(MemoryObjectiveTest, EmptyGraphDoesNotOffload) {
  ExecGraph g;
  const auto d = decide_partitioning(g, memory_request(1));
  EXPECT_FALSE(d.offload);
}

TEST(SpeedupObjectiveTest, OffloadsComputeHeavyComponent) {
  ExecGraph g;
  g.set_pinned(cls(0), true);
  g.add_self_time(cls(0), sim_sec(1));
  g.add_self_time(cls(1), sim_sec(100));  // heavy compute
  g.add_memory(cls(1), 10'000, 10);
  g.set_edge(cls(0), cls(1), edge(1'000, 10));  // cheap boundary

  PartitionRequest req;
  req.objective = Objective::speed_up;
  req.surrogate_speedup = 3.5;
  req.history_duration = sim_sec(101);
  const auto d = decide_partitioning(g, req);
  ASSERT_TRUE(d.offload);
  EXPECT_TRUE(d.selected.offload.contains(cls(1)));
  EXPECT_LT(d.predicted_offloaded_time, d.predicted_original_time);
  // Ideal bound: 1s client + 100/3.5s surrogate + small comm.
  EXPECT_GT(d.predicted_offloaded_time, sim_sec(29));
  EXPECT_LT(d.predicted_offloaded_time, sim_sec(40));
}

TEST(SpeedupObjectiveTest, DeclinesWhenCommunicationDominates) {
  // Biomer's shape: compute is tightly coupled to the pinned UI, so every
  // candidate's communication cost exceeds the CPU gain.
  ExecGraph g;
  g.set_pinned(cls(0), true);
  g.add_self_time(cls(0), sim_sec(1));
  g.add_self_time(cls(1), sim_sec(10));
  g.add_memory(cls(1), 10'000, 10);
  // 10^7 interactions across the boundary: at 2.4 ms RTT each this swamps
  // the 7-second CPU saving.
  g.set_edge(cls(0), cls(1), edge(1'000'000, 10'000'000));

  PartitionRequest req;
  req.objective = Objective::speed_up;
  req.surrogate_speedup = 3.5;
  req.history_duration = sim_sec(11);
  const auto d = decide_partitioning(g, req);
  EXPECT_FALSE(d.offload);
  // When declining, the decision still reports the best candidate's
  // prediction (which is worse than staying put) — the paper's "predicted
  // 790 s vs 750 s" Biomer report.
  EXPECT_GT(d.predicted_offloaded_time, d.predicted_original_time);
}

TEST(SpeedupObjectiveTest, MinImprovementRaisesTheBar) {
  ExecGraph g;
  g.set_pinned(cls(0), true);
  g.add_self_time(cls(0), sim_sec(10));
  g.add_self_time(cls(1), sim_sec(1));  // marginal gain only
  g.set_edge(cls(0), cls(1), edge(100, 1));

  PartitionRequest req;
  req.objective = Objective::speed_up;
  req.surrogate_speedup = 3.5;
  req.history_duration = sim_sec(11);
  const auto permissive = decide_partitioning(g, req);
  EXPECT_TRUE(permissive.offload);

  req.min_improvement = 0.50;  // demand a 2x win: impossible here
  const auto strict = decide_partitioning(g, req);
  EXPECT_FALSE(strict.offload);
}

TEST(SpeedupObjectiveTest, MigrationChargeCanFlipDecision) {
  // Offloading cls(1) saves ~140 ms of compute, before shipping its state.
  const auto graph_with_state = [](std::int64_t bytes) {
    ExecGraph g;
    g.set_pinned(cls(0), true);
    g.add_self_time(cls(0), sim_ms(100));
    g.add_self_time(cls(1), sim_ms(200));
    g.add_memory(cls(1), bytes, 1);
    g.set_edge(cls(0), cls(1), edge(10, 1));
    return g;
  };

  PartitionRequest req;
  req.objective = Objective::speed_up;
  req.surrogate_speedup = 3.5;
  req.history_duration = sim_ms(300);

  // 20 KB ships in ~15 ms; 200 MB would take ~150 s.
  EXPECT_TRUE(decide_partitioning(graph_with_state(20 << 10), req).offload);
  EXPECT_FALSE(decide_partitioning(graph_with_state(200 << 20), req).offload);
}

TEST(PredictionHelpersTest, CommTimeMatchesLinkModel) {
  graph::Candidate cand;
  cand.cut_invocations = 100;
  cand.cut_bytes = 1375;  // 1 ms at 11 Mbps
  const auto t = predicted_comm_time(cand, netsim::LinkParams::wavelan());
  EXPECT_EQ(t, 100 * sim_us(2400) + sim_ms(1));
}

TEST(PredictionHelpersTest, OffloadTimeScalesWithSpeedup) {
  graph::Candidate cand;
  cand.offload_self_time = sim_sec(35);
  PartitionRequest req;
  req.objective = Objective::speed_up;
  req.surrogate_speedup = 3.5;
  const auto t = predicted_offload_time(cand, sim_sec(35), req);
  // Shipping no state still costs one null round trip.
  EXPECT_EQ(t, sim_sec(10) + sim_us(2400));
}

// The live platform and the emulator build every partition request through
// OffloadPolicy::request; check it field by field.
TEST(OffloadPolicyTest, RequestCarriesThePolicy) {
  OffloadPolicy policy;
  policy.objective = Objective::speed_up;
  policy.min_free_fraction = 0.25;
  policy.min_improvement = 0.10;
  policy.surrogate_speedup = 2.5;
  policy.link = netsim::LinkParams::cellular();

  const auto req = policy.request(4'000'000, sim_sec(7));
  EXPECT_EQ(req.min_free_bytes, 1'000'000);  // 0.25 x 4 MB
  EXPECT_EQ(req.history_duration, sim_sec(7));
  EXPECT_EQ(req.objective, Objective::speed_up);
  EXPECT_DOUBLE_EQ(req.surrogate_speedup, 2.5);
  EXPECT_DOUBLE_EQ(req.min_improvement, 0.10);
  EXPECT_EQ(req.link, netsim::LinkParams::cellular());
  // Only the platform adds gravity; hints are never part of the policy.
  EXPECT_EQ(req.hints, nullptr);
  EXPECT_EQ(req.reoffload_gravity, nullptr);

  // A forced offload's override replaces the fraction-of-heap bound.
  EXPECT_EQ(policy.request(4'000'000, sim_sec(7), 1).min_free_bytes, 1);
  // An empty history still has a positive duration.
  EXPECT_EQ(policy.request(4'000'000, 0).history_duration, 1);
  EXPECT_EQ(policy.request(4'000'000, -5).history_duration, 1);
}

TEST(OffloadPolicyTest, GranularityCarriesTheArrayEnhancement) {
  OffloadPolicy policy;
  policy.arrays_as_objects = true;
  policy.min_array_bytes = 8192;
  const auto g = policy.granularity(ClassId{9});
  EXPECT_TRUE(g.arrays_as_objects);
  EXPECT_EQ(g.min_array_bytes, 8192);
  EXPECT_EQ(g.object_granularity_classes, std::vector<ClassId>{ClassId{9}});
}

// One default policy for both models: the paper's 3.5x surrogate, WaveLAN,
// <5% free x3, free_memory with 20%, one offload, no enhancements.
TEST(OffloadPolicyTest, LiveAndEmulatedDefaultsAgree) {
  const platform::PlatformConfig live_cfg;
  const emul::EmulatorConfig emulated_cfg;
  const OffloadPolicy& live = live_cfg;
  const OffloadPolicy& emulated = emulated_cfg;
  EXPECT_EQ(live, emulated);
  EXPECT_EQ(live, OffloadPolicy{});
  EXPECT_DOUBLE_EQ(emulated.surrogate_speedup, 3.5);
  EXPECT_EQ(emulated.link, netsim::LinkParams::wavelan());
  EXPECT_EQ(emulated.max_offloads, 1u);
  EXPECT_DOUBLE_EQ(emulated.min_free_fraction, 0.20);
}

TEST(DecisionTest, ComputeTimeIsMeasured) {
  const auto g = sample_graph();
  const auto d = decide_partitioning(g, memory_request(1));
  EXPECT_GE(d.compute_seconds, 0.0);
  EXPECT_LT(d.compute_seconds, 5.0);
}

}  // namespace
}  // namespace aide::partition
