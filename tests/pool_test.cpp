// Surrogate-pool tests: deterministic placement policy, failover onto the
// next-best surviving peer, and the flat-uint64 stats layout contracts.
//
// The placement policy must be a pure function of the pool's observable
// state (score arithmetic pinned against the documented formula, ties to the
// lowest index), so two identically configured pools driven by the same
// admission/turn/death sequence must agree byte-for-byte on every placement,
// every replacement record, the shared clock, and the aggregated counters.
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/simclock.hpp"
#include "netsim/link.hpp"
#include "platform/surrogate_pool.hpp"
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

platform::ServerConfig member_config(double speedup,
                                     std::size_t max_sessions = 64) {
  platform::ServerConfig cfg;
  // Field-only registry: the shared gates are covered by the fleet tests.
  cfg.static_analysis = false;
  cfg.effect_verify = false;
  cfg.surrogate_speedup = speedup;
  cfg.max_sessions = max_sessions;
  return cfg;
}

platform::PoolConfig pool_config(std::initializer_list<double> speedups,
                                 std::size_t max_sessions = 64) {
  platform::PoolConfig pc;
  for (const double s : speedups) {
    pc.members.push_back(member_config(s, max_sessions));
  }
  return pc;
}

// One turn's worth of real session work: allocate and offload a Rec, so the
// turn moves bytes through the session's link (advancing the shared clock
// and priming the RTT estimator) instead of idling.
platform::TurnOutcome busy_turn(platform::Session& s, std::uint64_t quota) {
  const vm::ObjectRef o = s.client().new_object("Rec");
  s.client().add_root(o);
  const ObjectId ids[] = {o.id};
  EXPECT_TRUE(s.offload(ids));
  s.driver_state += 1;
  return s.driver_state >= quota ? platform::TurnOutcome::finished
                                 : platform::TurnOutcome::yielded;
}

// --- placement policy --------------------------------------------------------

TEST(PoolPlacement, ScoreMatchesTheDocumentedFormula) {
  platform::SurrogatePool pool(rec_registry(), pool_config({2.0, 8.0, 4.0}));
  // Fresh pool: no sessions, no RTT samples. Score reduces to
  // 1/speedup + null-RTT seconds.
  const double link_s =
      sim_to_seconds(netsim::LinkParams::wavelan().null_rtt);
  EXPECT_DOUBLE_EQ(pool.placement_score(0), 1.0 / 2.0 + link_s);
  EXPECT_DOUBLE_EQ(pool.placement_score(1), 1.0 / 8.0 + link_s);
  EXPECT_DOUBLE_EQ(pool.placement_score(2), 1.0 / 4.0 + link_s);
  EXPECT_EQ(pool.best_member(), 1u);

  // Admitting on the best member moves only its load term: +1/max_sessions.
  platform::Session* s = pool.open_session();
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(pool.member_of(s->id()), 1u);
  EXPECT_DOUBLE_EQ(pool.placement_score(1), 1.0 / 8.0 + link_s + 1.0 / 64.0);
  EXPECT_DOUBLE_EQ(pool.placement_score(0), 1.0 / 2.0 + link_s);
}

TEST(PoolPlacement, EqualMembersSpreadRoundRobin) {
  // Identical members tie on cpu+link, so the load term decides and ties
  // break to the lowest index: admissions interleave 0,1,2,3,0,1,2,3.
  platform::SurrogatePool pool(rec_registry(),
                               pool_config({3.0, 3.0, 3.0, 3.0}));
  for (std::size_t round = 0; round < 2; ++round) {
    for (std::size_t want = 0; want < pool.size(); ++want) {
      platform::Session* s = pool.open_session();
      ASSERT_NE(s, nullptr);
      EXPECT_EQ(pool.member_of(s->id()), want);
    }
  }
  EXPECT_EQ(pool.session_count(), 8u);
  EXPECT_EQ(pool.stats().placements, 8u);
}

TEST(PoolPlacement, FullMemberScoresInfinityAndAdmissionRejects) {
  platform::SurrogatePool pool(rec_registry(), pool_config({3.0}, 1));
  ASSERT_NE(pool.open_session(), nullptr);
  EXPECT_EQ(pool.placement_score(0),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(pool.best_member(), pool.size());
  EXPECT_EQ(pool.open_session(), nullptr);
  EXPECT_EQ(pool.stats().admission_rejections, 1u);
}

TEST(PoolPlacement, MembersShareThePoolClock) {
  platform::SurrogatePool pool(rec_registry(), pool_config({2.0, 4.0}));
  for (std::size_t i = 0; i < pool.size(); ++i) {
    EXPECT_EQ(&pool.member(i).clock(), &pool.clock());
  }
}

// --- failover ----------------------------------------------------------------

TEST(PoolFailover, SessionsMoveToTheNextBestPeer) {
  // Member 1 is fastest and takes every admission; member 2 is the clear
  // runner-up. Killing 1 must re-admit every victim on 2 — never back to
  // the client while a peer remains — in ascending old-id order, with the
  // driver slot carried over.
  platform::SurrogatePool pool(rec_registry(), pool_config({2.0, 8.0, 4.0}));
  for (int i = 0; i < 3; ++i) {
    platform::Session* s = pool.open_session();
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(pool.member_of(s->id()), 1u);
    s->driver_state = 100 + s->id().value();
  }

  const auto moved = pool.kill_surrogate(1);
  ASSERT_EQ(moved.size(), 3u);
  EXPECT_FALSE(pool.alive(1));
  EXPECT_EQ(pool.alive_count(), 2u);
  for (std::size_t i = 0; i < moved.size(); ++i) {
    const platform::Replacement& r = moved[i];
    EXPECT_EQ(r.old_id.value(), i);  // ascending old-id order
    EXPECT_EQ(r.from, 1u);
    EXPECT_EQ(r.to, 2u) << "next-best surviving peer";
    EXPECT_LT(r.to, pool.size()) << "no local fallback while peers remain";
    EXPECT_GT(r.new_id.value(), 2u) << "fresh pool-unique id";

    platform::Session* fresh = pool.find_session(r.new_id);
    ASSERT_NE(fresh, nullptr);
    EXPECT_EQ(fresh->driver_state, 100 + r.old_id.value());
    EXPECT_EQ(pool.find_session(r.old_id), nullptr);
  }
  EXPECT_EQ(pool.session_count(), 3u);
  EXPECT_EQ(pool.stats().deaths, 1u);
  EXPECT_EQ(pool.stats().replacements, 3u);
}

TEST(PoolFailover, VictimsWithNoFreePeerSlotAreClosed) {
  // Two members, two slots each, all four full. Killing member 0 leaves its
  // victims nowhere to go: they are reported with to == size() and closed.
  platform::SurrogatePool pool(rec_registry(), pool_config({3.0, 3.0}, 2));
  for (int i = 0; i < 4; ++i) ASSERT_NE(pool.open_session(), nullptr);
  ASSERT_EQ(pool.session_count(), 4u);

  const auto moved = pool.kill_surrogate(0);
  ASSERT_EQ(moved.size(), 2u);
  for (const platform::Replacement& r : moved) {
    EXPECT_EQ(r.from, 0u);
    EXPECT_EQ(r.to, pool.size());
  }
  EXPECT_EQ(pool.session_count(), 2u);
  EXPECT_EQ(pool.stats().replacements, 0u);
}

// --- whole-pool determinism --------------------------------------------------

// Replays one fixed scenario — admissions, busy turns, a surrogate death
// mid-run, more turns — and serializes everything observable.
struct ScenarioTrail {
  std::vector<std::uint64_t> events;

  void push(std::uint64_t v) { events.push_back(v); }

  bool operator==(const ScenarioTrail&) const = default;
};

ScenarioTrail run_scenario() {
  platform::SurrogatePool pool(rec_registry(),
                               pool_config({2.0, 6.0, 4.0, 3.0}, 8));
  ScenarioTrail trail;

  std::vector<SessionId> opened;
  for (int i = 0; i < 6; ++i) {
    platform::Session* s = pool.open_session();
    if (s == nullptr) continue;
    opened.push_back(s->id());
    trail.push(s->id().value());
    trail.push(pool.member_of(s->id()));
  }

  const auto turn = [](platform::Session& s) { return busy_turn(s, 6); };
  pool.run_rounds(2, turn);

  const std::size_t victim = pool.member_of(opened.front());
  for (const platform::Replacement& r : pool.kill_surrogate(victim)) {
    trail.push(r.old_id.value());
    trail.push(r.new_id.value());
    trail.push(r.from);
    trail.push(r.to);
  }
  pool.run_rounds(2, turn);

  const platform::ServerStats agg = pool.aggregate_server_stats();
  for (const std::uint64_t v :
       std::bit_cast<std::array<std::uint64_t,
                                sizeof(platform::ServerStats) /
                                    sizeof(std::uint64_t)>>(agg)) {
    trail.push(v);
  }
  trail.push(pool.stats().placements);
  trail.push(pool.stats().replacements);
  trail.push(static_cast<std::uint64_t>(pool.clock().now()));
  return trail;
}

TEST(PoolDeterminism, IdenticalRunsProduceIdenticalTrails) {
  const ScenarioTrail a = run_scenario();
  const ScenarioTrail b = run_scenario();
  ASSERT_FALSE(a.events.empty());
  EXPECT_EQ(a, b);
}

// --- stats layout contracts --------------------------------------------------

// Same pattern as EndpointStatsTest.AccumulateSumsEveryField: the struct is
// a flat uint64 array, so a forgotten field in operator+= shows up as a
// mismatched slot instead of silently dropping a counter.
TEST(PoolStatsTest, ServerStatsAccumulateSumsEveryField) {
  using platform::ServerStats;
  constexpr std::size_t kFields = sizeof(ServerStats) / sizeof(std::uint64_t);
  static_assert(kFields * sizeof(std::uint64_t) == sizeof(ServerStats),
                "ServerStats must stay a flat array of uint64 counters");
  using Raw = std::array<std::uint64_t, kFields>;

  Raw raw{};
  for (std::size_t i = 0; i < kFields; ++i) {
    raw[i] = static_cast<std::uint64_t>(i + 1);
  }
  const auto one = std::bit_cast<ServerStats>(raw);

  ServerStats sum;
  sum += one;
  sum += one;
  const Raw out = std::bit_cast<Raw>(sum);
  for (std::size_t i = 0; i < kFields; ++i) {
    EXPECT_EQ(out[i], 2 * (i + 1)) << "field index " << i
                                   << " not covered by operator+=";
  }
}

TEST(PoolStatsTest, PoolStatsAccumulateSumsEveryField) {
  using platform::PoolStats;
  constexpr std::size_t kFields = sizeof(PoolStats) / sizeof(std::uint64_t);
  static_assert(kFields * sizeof(std::uint64_t) == sizeof(PoolStats),
                "PoolStats must stay a flat array of uint64 counters");
  using Raw = std::array<std::uint64_t, kFields>;

  Raw raw{};
  for (std::size_t i = 0; i < kFields; ++i) {
    raw[i] = static_cast<std::uint64_t>(i + 1);
  }
  const auto one = std::bit_cast<PoolStats>(raw);

  PoolStats sum;
  sum += one;
  sum += one;
  const Raw out = std::bit_cast<Raw>(sum);
  for (std::size_t i = 0; i < kFields; ++i) {
    EXPECT_EQ(out[i], 2 * (i + 1)) << "field index " << i
                                   << " not covered by operator+=";
  }
}

}  // namespace
