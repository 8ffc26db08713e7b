// Multi-session surrogate server + fleet emulation tests.
//
// Covers the session-isolation guarantees (cross-session references rejected
// at the refmap boundary, epoch fencing scoped to one session, per-session
// stats namespacing), the admission/budget layer, deterministic round-robin
// scheduling, and the emulated fleet (byte-determinism at N=16, exact
// single-session parity with the plain emulator, and per-session binding on
// a pooled, multi-context surrogate).
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "apps/apps.hpp"
#include "common/error.hpp"
#include "emul/fleet.hpp"
#include "emul/recorder.hpp"
#include "platform/surrogate_server.hpp"
#include "rpc/refmap.hpp"
#include "vm/klass.hpp"
#include "vm/vm.hpp"

using namespace aide;

namespace {

std::shared_ptr<vm::ClassRegistry> rec_registry() {
  auto reg = std::make_shared<vm::ClassRegistry>();
  vm::ClassBuilder cb("Rec");
  for (const char* name : {"f0", "f1", "f2", "f3"}) cb.field(name);
  reg->register_class(cb.build());
  return reg;
}

platform::ServerConfig script_config() {
  platform::ServerConfig cfg;
  // The Rec registry is field-only (no method IR); the gates-over-a-real-
  // registry path is covered by SharedGatesRunOnce below.
  cfg.static_analysis = false;
  cfg.effect_verify = false;
  return cfg;
}

// Opens a session and offloads `count` fresh Rec objects; returns their refs.
std::vector<vm::ObjectRef> offload_recs(platform::Session& s,
                                        std::size_t count) {
  std::vector<vm::ObjectRef> objs;
  std::vector<ObjectId> ids;
  for (std::size_t i = 0; i < count; ++i) {
    const vm::ObjectRef o = s.client().new_object("Rec");
    s.client().add_root(o);
    objs.push_back(o);
    ids.push_back(o.id);
  }
  EXPECT_TRUE(s.offload(ids));
  return objs;
}

// --- refmap boundary ---------------------------------------------------------

TEST(FleetRefMap, CrossSessionHandleRejected) {
  rpc::RefMap a;
  rpc::RefMap b;
  a.set_handle_namespace(1);
  b.set_handle_namespace(2);

  const ObjectId oa{(std::uint64_t{7} << 48) | 1};
  const ObjectId ob{(std::uint64_t{9} << 48) | 1};
  const ExportHandle ha = a.export_object(oa);
  const ExportHandle hb = b.export_object(ob);

  // Same low bits, different namespace: without namespacing hb's low bits
  // would wrongly resolve in a.
  EXPECT_EQ(ha.value() & 0xFFFFFFFFFFFFull, hb.value() & 0xFFFFFFFFFFFFull);
  EXPECT_EQ(rpc::RefMap::namespace_of(ha), 1u);
  EXPECT_EQ(rpc::RefMap::namespace_of(hb), 2u);

  EXPECT_EQ(a.resolve_export(ha), oa);
  EXPECT_THROW((void)a.resolve_export(hb), VmError);
  EXPECT_THROW((void)b.resolve_export(ha), VmError);
}

TEST(FleetRefMap, DefaultNamespaceIsLegacyPlainHandles) {
  rpc::RefMap m;
  const ObjectId id{(std::uint64_t{3} << 48) | 5};
  const ExportHandle h = m.export_object(id);
  EXPECT_EQ(h.value(), 1u);  // no namespace bits: pre-fleet wire handles
  EXPECT_EQ(m.resolve_export(h), id);
}

// --- session isolation on a live server --------------------------------------

TEST(FleetServer, SessionsSeeOnlyTheirOwnValues) {
  platform::SurrogateServer server(rec_registry(), script_config());
  platform::Session* s0 = server.open_session();
  platform::Session* s1 = server.open_session();
  ASSERT_NE(s0, nullptr);
  ASSERT_NE(s1, nullptr);

  const auto o0 = offload_recs(*s0, 2);
  const auto o1 = offload_recs(*s1, 2);

  s0->client().put_field(o0[0], FieldId{0}, vm::Value{std::int64_t{111}});
  s1->client().put_field(o1[0], FieldId{0}, vm::Value{std::int64_t{222}});
  s0->client_endpoint().flush_pending();
  s1->client_endpoint().flush_pending();

  EXPECT_EQ(s0->client().get_field(o0[0], FieldId{0}).as_int(), 111);
  EXPECT_EQ(s1->client().get_field(o1[0], FieldId{0}).as_int(), 222);
}

TEST(FleetServer, EpochBumpDoesNotFenceNeighborSession) {
  platform::SurrogateServer server(rec_registry(), script_config());
  platform::Session* s0 = server.open_session();
  platform::Session* s1 = server.open_session();
  const auto o0 = offload_recs(*s0, 2);
  const auto o1 = offload_recs(*s1, 2);
  (void)o1;

  const std::uint32_t epoch1_before = s1->client_endpoint().epoch();

  // Session 0 migrates again (a second batch), bumping *its* epoch.
  std::vector<ObjectId> more;
  const vm::ObjectRef extra = s0->client().new_object("Rec");
  s0->client().add_root(extra);
  more.push_back(extra.id);
  EXPECT_TRUE(s0->offload(more));
  EXPECT_GT(s0->client_endpoint().epoch(), 1u);

  // Session 1's fencing state is untouched and its traffic flows clean.
  EXPECT_EQ(s1->client_endpoint().epoch(), epoch1_before);
  s1->client().put_field(o1[1], FieldId{1}, vm::Value{std::int64_t{77}});
  s1->client_endpoint().flush_pending();
  EXPECT_EQ(s1->client().get_field(o1[1], FieldId{1}).as_int(), 77);
  const rpc::EndpointStats st = platform::SurrogateServer::session_stats(*s1);
  EXPECT_EQ(st.stale_frames_fenced, 0u);
  EXPECT_EQ(st.aborted_rpcs, 0u);
}

// --- admission + budgets -----------------------------------------------------

TEST(FleetServer, AdmissionCapRefusesAndFreedSlotReadmits) {
  platform::ServerConfig cfg = script_config();
  cfg.max_sessions = 2;
  platform::SurrogateServer server(rec_registry(), cfg);

  platform::Session* a = server.open_session();
  platform::Session* b = server.open_session();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(server.open_session(), nullptr);
  EXPECT_EQ(server.stats().admission_rejections, 1u);
  EXPECT_EQ(server.session_count(), 2u);

  server.close_session(a->id());
  EXPECT_EQ(server.session_count(), 1u);
  platform::Session* c = server.open_session();
  ASSERT_NE(c, nullptr);
  // Session ids are never reused even when slots are.
  EXPECT_EQ(c->id().value(), 2u);
}

TEST(FleetServer, OffloadedBytesBudgetRefusesWithoutSideEffects) {
  platform::ServerConfig cfg = script_config();
  cfg.budget.max_offloaded_bytes = 1;  // refuse any real batch
  platform::SurrogateServer server(rec_registry(), cfg);
  platform::Session* s = server.open_session();

  const vm::ObjectRef o = s->client().new_object("Rec");
  s->client().add_root(o);
  std::vector<ObjectId> ids{o.id};
  EXPECT_FALSE(s->offload(ids));
  EXPECT_EQ(s->budget_refusals(), 1u);
  EXPECT_EQ(s->offloaded_bytes(), 0u);
  // Nothing moved: the object is still client-local and fully usable.
  s->client().put_field(o, FieldId{0}, vm::Value{std::int64_t{5}});
  EXPECT_EQ(s->client().get_field(o, FieldId{0}).as_int(), 5);
  const rpc::EndpointStats st = platform::SurrogateServer::session_stats(*s);
  EXPECT_EQ(st.migrations_sent, 0u);
}

TEST(FleetServer, OpRateBudgetThrottlesPerTurn) {
  platform::ServerConfig cfg = script_config();
  cfg.budget.max_ops_per_turn = 3;
  platform::SurrogateServer server(rec_registry(), cfg);
  server.open_session();

  std::vector<std::uint32_t> ops_per_turn;
  server.run_rounds(2, [&](platform::Session& s) {
    std::uint32_t done = 0;
    while (s.charge_ops(1)) done += 1;
    ops_per_turn.push_back(done);
    return platform::TurnOutcome::yielded;
  });
  ASSERT_EQ(ops_per_turn.size(), 2u);
  EXPECT_EQ(ops_per_turn[0], 3u);  // allowance enforced...
  EXPECT_EQ(ops_per_turn[1], 3u);  // ...and reset each turn
  EXPECT_EQ(server.find_session(SessionId{0})->throttles(), 2u);
}

// --- scheduling --------------------------------------------------------------

TEST(FleetServer, RoundRobinVisitsInSessionOrderAndClosesAtRoundEnd) {
  platform::SurrogateServer server(rec_registry(), script_config());
  server.open_session();
  server.open_session();
  server.open_session();

  std::vector<std::uint32_t> visits;
  const std::size_t rounds =
      server.run_rounds(3, [&](platform::Session& s) {
        visits.push_back(s.id().value());
        // Session 1 finishes on its first turn; it must still not perturb
        // round 1's visit order, and must be gone from round 2 on.
        if (s.id().value() == 1 && s.turns_taken() == 1) {
          return platform::TurnOutcome::finished;
        }
        return platform::TurnOutcome::yielded;
      });
  EXPECT_EQ(rounds, 3u);
  const std::vector<std::uint32_t> expected{0, 1, 2, 0, 2, 0, 2};
  EXPECT_EQ(visits, expected);
  EXPECT_EQ(server.session_count(), 2u);
  EXPECT_EQ(server.stats().sessions_closed, 1u);
}

// --- stats namespacing -------------------------------------------------------

TEST(FleetServer, SingleSessionAggregateEqualsSessionStats) {
  platform::SurrogateServer server(rec_registry(), script_config());
  platform::Session* s = server.open_session();
  const auto objs = offload_recs(*s, 3);
  for (int i = 0; i < 10; ++i) {
    s->client().put_field(objs[static_cast<std::size_t>(i) % 3], FieldId{0},
                          vm::Value{std::int64_t{i}});
    s->client_endpoint().flush_pending();
    (void)s->client().get_field(objs[static_cast<std::size_t>(i) % 3],
                                FieldId{0});
  }

  const rpc::EndpointStats per = platform::SurrogateServer::session_stats(*s);
  const rpc::EndpointStats agg = server.aggregate_stats();
  EXPECT_EQ(per.rpcs_sent, agg.rpcs_sent);
  EXPECT_EQ(per.rpcs_served, agg.rpcs_served);
  EXPECT_EQ(per.bytes_sent, agg.bytes_sent);
  EXPECT_EQ(per.bytes_received, agg.bytes_received);
  EXPECT_EQ(per.ops_sent, agg.ops_sent);
  EXPECT_EQ(per.batches_sent, agg.batches_sent);
  EXPECT_EQ(per.batched_ops, agg.batched_ops);
  EXPECT_EQ(per.migrations_sent, agg.migrations_sent);
  EXPECT_EQ(per.retries, agg.retries);
  EXPECT_EQ(per.timeouts, agg.timeouts);
  EXPECT_GT(agg.rpcs_sent, 0u);
}

TEST(FleetServer, PerSessionStatsStayNamespaced) {
  platform::SurrogateServer server(rec_registry(), script_config());
  platform::Session* s0 = server.open_session();
  platform::Session* s1 = server.open_session();
  const auto o0 = offload_recs(*s0, 1);
  offload_recs(*s1, 1);

  // Only session 0 sends data traffic.
  for (int i = 0; i < 5; ++i) {
    s0->client().put_field(o0[0], FieldId{0}, vm::Value{std::int64_t{i}});
    s0->client_endpoint().flush_pending();
  }
  const rpc::EndpointStats st0 =
      platform::SurrogateServer::session_stats(*s0);
  const rpc::EndpointStats st1 =
      platform::SurrogateServer::session_stats(*s1);
  EXPECT_GT(st0.ops_sent, 0u);
  EXPECT_EQ(st1.ops_sent, 0u);  // the neighbor's counters never move
  const rpc::EndpointStats agg = server.aggregate_stats();
  EXPECT_EQ(agg.ops_sent, st0.ops_sent + st1.ops_sent);
}

// --- shared startup gates ----------------------------------------------------

TEST(FleetServer, SharedGatesRunOncePerServer) {
  auto reg = std::make_shared<vm::ClassRegistry>();
  apps::app_by_name("Tracer").register_classes(*reg);
  platform::ServerConfig cfg;  // gates on (the default)
  platform::SurrogateServer server(std::move(reg), cfg);

  ASSERT_TRUE(server.analysis_report().has_value());
  EXPECT_TRUE(server.analysis_report()->ok());
  ASSERT_TRUE(server.verify_report().has_value());

  // Admission after the gates is pure construction: no re-analysis, and
  // every session shares the server's oracle and registry.
  for (int i = 0; i < 8; ++i) ASSERT_NE(server.open_session(), nullptr);
  EXPECT_EQ(server.stats().sessions_opened, 8u);
}

// --- emulated fleet ----------------------------------------------------------

apps::AppParams tiny_tracer() {
  apps::AppParams p;
  p.trace_w = 8;
  p.trace_h = 6;
  p.spheres = 3;
  return p;
}

struct RecordedTrace {
  std::shared_ptr<vm::ClassRegistry> registry;
  emul::Trace trace;
};

RecordedTrace record_tiny_tracer() {
  RecordedTrace out;
  out.registry = std::make_shared<vm::ClassRegistry>();
  const auto& app = apps::app_by_name("Tracer");
  app.register_classes(*out.registry);
  SimClock clock;
  vm::VmConfig cfg;
  cfg.name = "prototype";
  cfg.heap_capacity = std::int64_t{64} << 20;
  cfg.gc_alloc_count_threshold = 1024;
  cfg.gc_alloc_bytes_divisor = 256;
  vm::Vm vm(cfg, out.registry, clock);
  emul::TraceRecorder recorder;
  vm.add_hooks(&recorder);
  app.run(vm, tiny_tracer());
  out.trace = recorder.take();
  return out;
}

emul::FleetConfig fleet_cfg() {
  emul::FleetConfig cfg;
  cfg.session.trigger_mode = emul::TriggerMode::trace_fraction;
  cfg.session.eval_at_fraction = 0.25;
  cfg.session.objective = partition::Objective::speed_up;
  cfg.session.surrogate_speedup = 3.5;
  cfg.session.heap_capacity = std::int64_t{64} << 20;
  cfg.session.stateless_natives_local = true;
  return cfg;
}

TEST(FleetEmul, SixteenSessionsAreByteDeterministic) {
  const RecordedTrace rec = record_tiny_tracer();
  emul::FleetEmulator fleet(rec.registry, fleet_cfg());
  const emul::FleetResult a = fleet.run(rec.trace, 16);
  const emul::FleetResult b = fleet.run(rec.trace, 16);

  ASSERT_EQ(a.sessions.size(), 16u);
  ASSERT_EQ(b.sessions.size(), 16u);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.surrogate_busy, b.surrogate_busy);
  EXPECT_EQ(a.total_remote_ops, b.total_remote_ops);
  EXPECT_EQ(a.turns, b.turns);
  EXPECT_EQ(a.op_latencies, b.op_latencies);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(a.sessions[i].emulated_time, b.sessions[i].emulated_time);
    EXPECT_EQ(a.sessions[i].comm_time, b.sessions[i].comm_time);
    EXPECT_EQ(a.sessions[i].queue_time, b.sessions[i].queue_time);
    EXPECT_EQ(a.sessions[i].remote_invocations,
              b.sessions[i].remote_invocations);
    EXPECT_EQ(a.sessions[i].remote_accesses, b.sessions[i].remote_accesses);
  }
}

TEST(FleetEmul, SingleSessionFleetMatchesPlainEmulator) {
  const RecordedTrace rec = record_tiny_tracer();
  emul::FleetEmulator fleet(rec.registry, fleet_cfg());
  const emul::FleetResult f = fleet.run(rec.trace, 1);

  emul::Emulator solo(rec.registry, fleet_cfg().session);
  const emul::EmulationResult r = solo.run(rec.trace);

  ASSERT_EQ(f.sessions.size(), 1u);
  const emul::EmulationResult& s = f.sessions[0];
  // A one-session fleet queues on nobody: every number matches the plain
  // single-session emulator exactly.
  EXPECT_EQ(s.queue_time, 0);
  EXPECT_EQ(r.queue_time, 0);
  EXPECT_EQ(s.emulated_time, r.emulated_time);
  EXPECT_EQ(s.base_time, r.base_time);
  EXPECT_EQ(s.comm_time, r.comm_time);
  EXPECT_EQ(s.migration_time, r.migration_time);
  EXPECT_EQ(s.gc_pressure_time, r.gc_pressure_time);
  EXPECT_EQ(s.remote_invocations, r.remote_invocations);
  EXPECT_EQ(s.remote_accesses, r.remote_accesses);
  EXPECT_EQ(s.remote_bytes, r.remote_bytes);
  EXPECT_EQ(s.peak_client_live, r.peak_client_live);
}

TEST(FleetEmul, ContentionOnlyAddsQueueTime) {
  const RecordedTrace rec = record_tiny_tracer();
  emul::FleetEmulator fleet(rec.registry, fleet_cfg());
  const emul::FleetResult f = fleet.run(rec.trace, 8);

  emul::Emulator solo(rec.registry, fleet_cfg().session);
  const emul::EmulationResult r = solo.run(rec.trace);

  // Identical traces + identical config: each session's own work is exactly
  // the solo run; sharing the surrogate can only add queueing delay.
  for (const emul::EmulationResult& s : f.sessions) {
    EXPECT_EQ(s.comm_time, r.comm_time);
    EXPECT_EQ(s.migration_time, r.migration_time);
    EXPECT_EQ(s.remote_invocations, r.remote_invocations);
    EXPECT_EQ(s.emulated_time, r.emulated_time + s.queue_time);
  }
}

TEST(FleetEmul, PooledFleetBindsEachSessionOnceAndIsDeterministic) {
  const RecordedTrace rec = record_tiny_tracer();
  emul::FleetConfig cfg = fleet_cfg();
  cfg.pool_size = 4;
  cfg.surrogate_concurrency = 2;
  emul::FleetEmulator fleet(rec.registry, cfg);
  const emul::FleetResult a = fleet.run(rec.trace, 16);
  const emul::FleetResult b = fleet.run(rec.trace, 16);

  ASSERT_EQ(a.placements.size(), b.placements.size());
  for (std::size_t i = 0; i < a.placements.size(); ++i) {
    EXPECT_EQ(a.placements[i].session, b.placements[i].session);
    EXPECT_EQ(a.placements[i].surrogate, b.placements[i].surrogate);
    EXPECT_EQ(a.placements[i].at, b.placements[i].at);
  }
  EXPECT_EQ(a.op_latencies, b.op_latencies);
  EXPECT_EQ(a.surrogate_busy_each, b.surrogate_busy_each);
  EXPECT_EQ(a.makespan, b.makespan);

  // A session binds to one member at its first acquire and keeps it.
  ASSERT_FALSE(a.placements.empty());
  std::vector<int> bound(16, 0);
  for (const emul::FleetPlacement& p : a.placements) {
    ASSERT_LT(p.session, 16u);
    ASSERT_LT(p.surrogate, 4u);
    EXPECT_EQ(++bound[p.session], 1) << "session " << p.session;
  }

  ASSERT_EQ(a.surrogate_busy_each.size(), 4u);
  SimDuration busy = 0;
  for (const SimDuration d : a.surrogate_busy_each) busy += d;
  EXPECT_EQ(busy, a.surrogate_busy);
}

}  // namespace
