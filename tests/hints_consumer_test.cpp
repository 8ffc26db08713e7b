// Tests for the consumers of the expanded StaticHints: the partitioner must
// be indifferent to the verify-only fields (replay_safe, prefetch_eligible),
// tolerate hand-crafted and contradictory hints, and the RPC read-ahead must
// honour a prefetch-eligibility set derived end-to-end from verify().
#include <gtest/gtest.h>

#include <memory>

#include "analysis/effects.hpp"
#include "graph/exec_graph.hpp"
#include "netsim/link.hpp"
#include "partition/partitioner.hpp"
#include "rpc/endpoint.hpp"
#include "vm/klass.hpp"
#include "vm/vm.hpp"

namespace aide::analysis {
namespace {

using vm::ClassBuilder;
using vm::ClassRegistry;
using vm::ObjectRef;
using vm::Value;
using vm::Vm;
using vm::VmConfig;

graph::EdgeInfo edge(std::uint64_t bytes, std::uint64_t inv) {
  return graph::EdgeInfo{.invocations = inv, .accesses = 0, .bytes = bytes};
}

graph::ExecGraph consumer_graph() {
  using graph::ComponentKey;
  graph::ExecGraph g;
  const ComponentKey ui{ClassId{0}}, data{ClassId{2}}, store{ClassId{3}};
  g.set_pinned(ui, true);
  g.add_memory(ui, 10'000, 5);
  g.add_memory(data, 400'000, 50);
  g.add_memory(store, 600'000, 3);
  g.set_edge(ui, data, edge(30'000, 300));
  g.set_edge(data, store, edge(200'000, 1000));
  return g;
}

partition::PartitionRequest consumer_request(const StaticHints* hints) {
  partition::PartitionRequest req;
  req.objective = partition::Objective::free_memory;
  req.min_free_bytes = 500'000;
  req.history_duration = sim_sec(10);
  req.hints = hints;
  return req;
}

TEST(HintsConsumerTest, VerifyOnlyFieldsNeverChangeThePartition) {
  const graph::ExecGraph g = consumer_graph();
  const auto plain = partition::decide_partitioning(g, consumer_request(nullptr));
  ASSERT_TRUE(plain.offload);

  // Hand-crafted hints carrying ONLY the verify-layer fields: the
  // partitioner consumes never_migrate/must_colocate/merge_candidates and
  // must treat these as a no-op contraction.
  StaticHints verify_only;
  verify_only.replay_safe = {{ClassId{2}, MethodId{0}},
                             {ClassId{3}, MethodId{1}}};
  verify_only.prefetch_eligible = {ClassId{2}, ClassId{3}};
  ASSERT_FALSE(verify_only.empty());
  const auto d = partition::decide_partitioning(g, consumer_request(&verify_only));
  ASSERT_TRUE(d.offload);
  EXPECT_EQ(d.mincut_nodes, plain.mincut_nodes);  // nothing contracted
  EXPECT_EQ(d.selected.offload, plain.selected.offload);
}

TEST(HintsConsumerTest, ExpandedFieldsRideAlongWithContraction) {
  const graph::ExecGraph g = consumer_graph();
  StaticHints base;
  base.never_migrate = {ClassId{0}};
  base.merge_candidates = {{ClassId{2}, ClassId{3}}};
  const auto contracted = partition::decide_partitioning(g, consumer_request(&base));
  ASSERT_TRUE(contracted.offload);
  ASSERT_TRUE(contracted.hints_applied);

  StaticHints expanded = base;
  expanded.replay_safe = {{ClassId{2}, MethodId{0}}};
  expanded.prefetch_eligible = {ClassId{3}};
  const auto d = partition::decide_partitioning(g, consumer_request(&expanded));
  ASSERT_TRUE(d.offload);
  EXPECT_EQ(d.mincut_nodes, contracted.mincut_nodes);
  EXPECT_EQ(d.selected.offload, contracted.selected.offload);
}

TEST(HintsConsumerTest, ContradictoryAndOutOfRangeHintsAreHarmless) {
  const graph::ExecGraph g = consumer_graph();
  StaticHints weird;
  // Contradiction: a pinned-closure class marked prefetch eligible, and a
  // replay_safe entry for a class that does not exist at all.
  weird.never_migrate = {ClassId{0}};
  weird.prefetch_eligible = {ClassId{0}};
  weird.replay_safe = {{ClassId{999}, MethodId{42}}};
  weird.merge_candidates = {{ClassId{777}, ClassId{888}}};  // not in graph
  const auto d = partition::decide_partitioning(g, consumer_request(&weird));
  ASSERT_TRUE(d.offload);
  // The unknown merge pair is skipped; the decision still expands cleanly.
  EXPECT_FALSE(d.selected.offload.contains(graph::ComponentKey{ClassId{0}}));
}

// --- end-to-end: verify() hints drive the endpoint's read-ahead filter -------

// Enc's field is written only by its own methods (eligible); Open's field is
// written by Leaker (not eligible).
std::shared_ptr<ClassRegistry> hint_registry() {
  auto reg = std::make_shared<ClassRegistry>();
  reg->register_class(
      ClassBuilder("Enc")
          .entry()
          .field("v")
          .method("get",
                  [](Vm& ctx, ObjectRef self, auto) -> Value {
                    return ctx.get_field(self, FieldId{0});
                  })
          .reads("Enc", "v")
          .method("set",
                  [](Vm& ctx, ObjectRef self, auto args) -> Value {
                    ctx.put_field(self, FieldId{0}, args[0]);
                    return Value{};
                  })
          .writes("Enc", "v")
          .build());
  reg->register_class(ClassBuilder("Open").entry().field("w").build());
  reg->register_class(
      ClassBuilder("Leaker")
          .entry()
          .method("poke",
                  [](Vm&, ObjectRef, auto) -> Value { return Value{}; })
          .writes("Open", "w")
          .build());
  return reg;
}

TEST(HintsConsumerTest, EndpointFilterFromVerifyHints) {
  auto reg = hint_registry();
  const VerifyReport report = verify(*reg);
  ASSERT_EQ(report.count(Severity::error), 0u) << report.summary();
  ASSERT_EQ(report.methods_with_ir, report.methods_total);

  const ClassId enc = reg->find("Enc");
  const ClassId open = reg->find("Open");
  ASSERT_TRUE(std::binary_search(report.hints.prefetch_eligible.begin(),
                                 report.hints.prefetch_eligible.end(), enc));
  ASSERT_FALSE(std::binary_search(report.hints.prefetch_eligible.begin(),
                                  report.hints.prefetch_eligible.end(), open));
  const BatchSafety oracle(report);
  EXPECT_TRUE(oracle.prefetch_eligible(enc));
  EXPECT_FALSE(oracle.prefetch_eligible(open));

  SimClock clock;
  netsim::Link link(netsim::LinkParams::wavelan());
  VmConfig ccfg;
  ccfg.node = NodeId{1};
  ccfg.is_client = true;
  ccfg.heap_capacity = 4 << 20;
  VmConfig scfg;
  scfg.node = NodeId{2};
  scfg.is_client = false;
  scfg.heap_capacity = 32 << 20;
  Vm client(ccfg, reg, clock);
  Vm surrogate(scfg, reg, clock);
  rpc::Endpoint cep(client, link);
  rpc::Endpoint sep(surrogate, link);
  rpc::Endpoint::connect(cep, sep);
  cep.set_batch_safety(&oracle);

  const ObjectRef e = client.new_object("Enc");
  const ObjectRef o = client.new_object("Open");
  client.add_root(e);
  client.add_root(o);
  client.put_field(e, FieldId{0}, Value{11});
  client.put_field(o, FieldId{0}, Value{22});
  const ObjectId ids[] = {e.id, o.id};
  cep.migrate_objects(ids);
  cep.set_prefetch_groups({{e.id, o.id}});
  cep.set_prefetch_eligible(report.hints.prefetch_eligible);

  // Demanding Enc fetches it but prunes the ineligible Open group mate.
  EXPECT_EQ(client.get_field(e, FieldId{0}).as_int(), 11);
  EXPECT_EQ(cep.stats().objects_prefetched, 0u);
  EXPECT_EQ(cep.stats().prefetches_filtered, 1u);
  // The pruned mate still reads correctly — just without the snapshot.
  EXPECT_EQ(client.get_field(o, FieldId{0}).as_int(), 22);

  // Contradictory filter (empty-intersection with the group) still always
  // serves the demanded object.
  cep.set_prefetch_eligible({ClassId{9999}});
  EXPECT_EQ(client.get_field(e, FieldId{0}).as_int(), 11);
}

}  // namespace
}  // namespace aide::analysis
