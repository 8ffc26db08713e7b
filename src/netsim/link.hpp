// Analytic wireless-link model.
//
// The paper's emulator charges remote interactions against an 11 Mbps
// WaveLAN link with a 2.4 ms round-trip time for a null message (section 4).
// This module reproduces exactly that cost model: a message costs half the
// null-message RTT (per direction) plus its serialized size over the link
// bandwidth, with an optional deterministic jitter term for sensitivity
// studies.
//
// On top of the cost model sits a deterministic fault model (FaultPlan):
// scheduled outage windows, degraded-bandwidth intervals and a seeded
// per-message drop probability, all evaluated against the virtual SimClock
// so every fault schedule is exactly reproducible.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "common/simclock.hpp"

namespace aide::netsim {

struct LinkParams {
  // Raw link bandwidth in bits per second.
  double bandwidth_bps = 11e6;
  // Round-trip time of a zero-payload request/response pair.
  SimDuration null_rtt = sim_us(2400);
  // Fraction of one-way latency added as uniform jitter (0 = deterministic).
  double jitter_fraction = 0.0;
  // Seed for the jitter stream; irrelevant when jitter_fraction == 0.
  std::uint64_t jitter_seed = 42;

  // The paper's measured link (WaveLAN, 11 Mbps, 2.4 ms null RTT).
  static LinkParams wavelan() noexcept { return LinkParams{}; }

  // A wired 100 Mbps LAN, used by the link-quality ablation bench.
  static LinkParams fast_ethernet() noexcept {
    return LinkParams{.bandwidth_bps = 100e6, .null_rtt = sim_us(200)};
  }

  // A slow wide-area cellular-class link.
  static LinkParams cellular() noexcept {
    return LinkParams{.bandwidth_bps = 384e3, .null_rtt = sim_ms(120)};
  }

  bool operator==(const LinkParams&) const = default;
};

// Side-effect-free cost probes: candidate evaluation (partitioner, emulator)
// must be able to price a hypothetical message without polluting the link's
// traffic accounting or consuming its jitter stream.
[[nodiscard]] inline SimDuration estimate_one_way_cost(
    const LinkParams& p, std::uint64_t payload_bytes) noexcept {
  const double serialization_s =
      static_cast<double>(payload_bytes) * 8.0 / p.bandwidth_bps;
  return p.null_rtt / 2 + static_cast<SimDuration>(serialization_s * 1e9);
}

// Synchronous request/response estimate over `total_bytes` of payload.
// Computed from the full null RTT (not two halved legs) so an odd-nanosecond
// RTT does not lose precision to per-direction truncation.
[[nodiscard]] inline SimDuration estimate_rpc_cost(
    const LinkParams& p, std::uint64_t total_bytes) noexcept {
  const double serialization_s =
      static_cast<double>(total_bytes) * 8.0 / p.bandwidth_bps;
  return p.null_rtt + static_cast<SimDuration>(serialization_s * 1e9);
}

// A half-open [begin, end) interval during which the link delivers nothing.
struct OutageWindow {
  SimTime begin = 0;
  SimTime end = 0;

  [[nodiscard]] bool contains(SimTime t) const noexcept {
    return t >= begin && t < end;
  }
};

// A half-open [begin, end) interval during which the link runs at a fraction
// of its nominal bandwidth (latency is unchanged; only serialization slows).
struct DegradedWindow {
  SimTime begin = 0;
  SimTime end = 0;
  double bandwidth_factor = 1.0;

  [[nodiscard]] bool contains(SimTime t) const noexcept {
    return t >= begin && t < end;
  }
};

// Which direction of a request/response exchange a transmission belongs to.
// The fault model can target the reply leg alone (reply_drop_probability),
// which is what exercises at-most-once dedup end-to-end: the request executes
// but its acknowledgement is lost.
enum class Leg : std::uint8_t { request, reply };

// A deterministic, seedable fault schedule. A default-constructed plan is
// inert: every message is delivered at the nominal cost and the link behaves
// bit-for-bit like the fault-free model.
struct FaultPlan {
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

  std::vector<OutageWindow> outages;
  std::vector<DegradedWindow> degraded;
  // Probability that an otherwise-deliverable message is lost in transit.
  double drop_probability = 0.0;
  // Probability that a reply-leg message alone is lost in transit.
  double reply_drop_probability = 0.0;
  // Seed for the drop stream; only consumed when a drop probability > 0.
  std::uint64_t drop_seed = 0xD0D0;
  // Link death window [dead_after, revive_at): nothing is delivered inside
  // it. revive_at == kNever makes the death permanent (PR 1 semantics);
  // anything earlier models a surrogate that recovers and can be re-admitted.
  SimTime dead_after = kNever;
  SimTime revive_at = kNever;
  // Repeating outage schedule: when outage_period > 0, the link is down
  // during [phase + k*period, phase + k*period + duration) for every k >= 0.
  //
  // Phase edge: the schedule only exists from `outage_phase` onward — for
  // now < outage_phase the repeating term contributes nothing (always-up),
  // because is_down() never evaluates the modulo for negative offsets. A
  // flap schedule that should start with the link up therefore sets `phase`
  // to the first down-edge; one that starts down sets phase = 0 (the k = 0
  // window then begins at t = 0).
  //
  // Interaction with the death window: is_down() ORs all terms, so a
  // repeating schedule composes with [dead_after, revive_at) — the link is
  // down inside the death window even between flap windows, and a flap
  // window that straddles revive_at keeps the link down past the revival
  // until that window's duration elapses. Death refuses delivery; it does
  // not pause or re-anchor the flap phase.
  SimDuration outage_period = 0;
  SimDuration outage_duration = 0;
  SimTime outage_phase = 0;
  // Message-level chaos: probabilities that a delivered message arrives
  // corrupted (one byte flipped), duplicated (delivered twice), or reordered
  // (a stale retransmit of the previous message arrives in its place). All
  // three draw from one seeded stream separate from the drop stream.
  double corrupt_probability = 0.0;
  double duplicate_probability = 0.0;
  double reorder_probability = 0.0;
  std::uint64_t chaos_seed = 0xC4A05;

  [[nodiscard]] bool enabled() const noexcept {
    return !outages.empty() || !degraded.empty() || drop_probability > 0.0 ||
           reply_drop_probability > 0.0 || dead_after != kNever ||
           outage_period > 0 || corrupt_probability > 0.0 ||
           duplicate_probability > 0.0 || reorder_probability > 0.0;
  }
};

// Composes a repeated connect/disconnect ("flap") schedule onto `base`: the
// link goes down at `first_down`, stays down for `down_for`, comes back for
// `up_for`, and repeats forever. Everything before `first_down` is up (the
// phase edge documented on FaultPlan). Other fields of `base` — death
// window, drop/chaos probabilities, one-shot outages — are preserved and
// compose by OR with the flap windows.
[[nodiscard]] inline FaultPlan make_flap_plan(SimTime first_down,
                                              SimDuration down_for,
                                              SimDuration up_for,
                                              FaultPlan base = {}) {
  base.outage_phase = first_down;
  base.outage_duration = down_for;
  base.outage_period = down_for + up_for;
  return base;
}

// Cumulative traffic accounting for one link.
struct LinkStats {
  std::uint64_t messages = 0;  // transmissions that made it onto the air
  std::uint64_t bytes = 0;
  SimDuration busy_time = 0;
  // Per-op accounting for batched transports: logical operations carried by
  // delivered request frames. With per-op framing this tracks request
  // messages 1:1; a batching transport reports N ops per frame, so
  // ops_carried / request frames is the link-level coalescing ratio.
  std::uint64_t ops_carried = 0;
  // Fault accounting (all zero under an inert FaultPlan).
  std::uint64_t messages_dropped = 0;  // transmitted but lost in transit
  std::uint64_t bytes_dropped = 0;
  std::uint64_t link_down_failures = 0;  // sends refused: link down/dead
  // Chaos accounting (all zero unless chaos probabilities are set).
  std::uint64_t messages_corrupted = 0;
  std::uint64_t messages_duplicated = 0;
  std::uint64_t messages_reordered = 0;

  void reset() noexcept { *this = LinkStats{}; }

  friend bool operator==(const LinkStats&, const LinkStats&) = default;
};

class Link {
 public:
  // The outcome of attempting one transmission under the fault model. The
  // chaos flags describe what the network did to a delivered message; the
  // transport (rpc::Endpoint) implements the corresponding semantics.
  struct Delivery {
    bool delivered = false;
    SimDuration cost = 0;  // airtime consumed (0 when the link was down)
    bool corrupted = false;   // arrives with one byte flipped
    bool duplicated = false;  // arrives twice (second airtime already charged)
    bool reordered = false;   // a stale retransmit arrives in its place
    std::uint64_t chaos_salt = 0;  // picks the flipped byte when corrupted
  };

  explicit Link(LinkParams params = LinkParams::wavelan()) noexcept
      : params_(params),
        jitter_rng_(params.jitter_seed),
        drop_rng_(FaultPlan{}.drop_seed),
        chaos_rng_(FaultPlan{}.chaos_seed) {}

  [[nodiscard]] const LinkParams& params() const noexcept { return params_; }
  [[nodiscard]] const LinkStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_.reset(); }

  // Called by the transport after a delivered request frame to record how
  // many logical operations it carried (1 for a legacy frame, N for a batch).
  void note_ops(std::uint64_t n) noexcept { stats_.ops_carried += n; }

  void set_fault_plan(FaultPlan plan) {
    plan_ = std::move(plan);
    drop_rng_.reseed(plan_.drop_seed);
    chaos_rng_.reseed(plan_.chaos_seed);
  }
  [[nodiscard]] const FaultPlan& fault_plan() const noexcept { return plan_; }

  // Whether the link delivers anything at virtual time `now`.
  [[nodiscard]] bool is_down(SimTime now) const noexcept {
    if (now >= plan_.dead_after &&
        (plan_.revive_at == FaultPlan::kNever || now < plan_.revive_at)) {
      return true;
    }
    for (const OutageWindow& w : plan_.outages) {
      if (w.contains(now)) return true;
    }
    if (plan_.outage_period > 0 && now >= plan_.outage_phase) {
      const SimDuration into = (now - plan_.outage_phase) % plan_.outage_period;
      if (into < plan_.outage_duration) return true;
    }
    return false;
  }

  // Time for one message of `payload_bytes` to cross the link one way,
  // assuming delivery (the fault-free charge path).
  [[nodiscard]] SimDuration one_way_cost(std::uint64_t payload_bytes) noexcept {
    return charge(payload_bytes, 1.0);
  }

  // Fault-aware transmission attempt at virtual time `now`. A down link
  // refuses the send outright (no airtime); a dropped message consumes its
  // full airtime but is not delivered. With an inert FaultPlan this is
  // exactly one_way_cost: same cost, same jitter stream, same accounting.
  //
  // Draw-order discipline: every new probability field draws from its stream
  // only when it is nonzero, so a plan that leaves the new fields at their
  // defaults consumes the drop stream exactly as PR 1 did.
  [[nodiscard]] Delivery try_one_way(std::uint64_t payload_bytes, SimTime now,
                                     Leg leg = Leg::request) noexcept {
    if (is_down(now)) {
      stats_.link_down_failures += 1;
      return Delivery{false, 0};
    }
    const double factor = bandwidth_factor_at(now);
    const SimDuration cost = charge(payload_bytes, factor);
    if (plan_.drop_probability > 0.0 &&
        drop_rng_.next_double() < plan_.drop_probability) {
      stats_.messages_dropped += 1;
      stats_.bytes_dropped += payload_bytes;
      return Delivery{false, cost};
    }
    if (leg == Leg::reply && plan_.reply_drop_probability > 0.0 &&
        drop_rng_.next_double() < plan_.reply_drop_probability) {
      stats_.messages_dropped += 1;
      stats_.bytes_dropped += payload_bytes;
      return Delivery{false, cost};
    }
    Delivery d{true, cost};
    // Draw each chaos stream unconditionally (when armed) so outcomes do not
    // shift later draws; then resolve at most one effect per message.
    const bool corrupt = plan_.corrupt_probability > 0.0 &&
                         chaos_rng_.next_double() < plan_.corrupt_probability;
    const bool reorder = plan_.reorder_probability > 0.0 &&
                         chaos_rng_.next_double() < plan_.reorder_probability;
    const bool duplicate =
        plan_.duplicate_probability > 0.0 &&
        chaos_rng_.next_double() < plan_.duplicate_probability;
    if (corrupt) {
      d.corrupted = true;
      d.chaos_salt = chaos_rng_.next_u64();
      stats_.messages_corrupted += 1;
    } else if (reorder) {
      d.reordered = true;
      stats_.messages_reordered += 1;
    } else if (duplicate) {
      d.duplicated = true;
      stats_.messages_duplicated += 1;
      // The second copy occupies the air too.
      d.cost += charge(payload_bytes, factor);
    }
    return d;
  }

  // Side-effect-free probe of the nominal (fault-free, jitter-free) cost.
  [[nodiscard]] SimDuration estimate_one_way_cost(
      std::uint64_t payload_bytes) const noexcept {
    return netsim::estimate_one_way_cost(params_, payload_bytes);
  }

  // Time for a synchronous request/response exchange.
  [[nodiscard]] SimDuration round_trip_cost(std::uint64_t request_bytes,
                                            std::uint64_t response_bytes) noexcept {
    return one_way_cost(request_bytes) + one_way_cost(response_bytes);
  }

 private:
  // Computes and accounts the cost of one transmission. `bandwidth_factor`
  // scales the serialization term (degraded windows); 1.0 reproduces the
  // nominal model exactly.
  [[nodiscard]] SimDuration charge(std::uint64_t payload_bytes,
                                   double bandwidth_factor) noexcept {
    const double serialization_s = static_cast<double>(payload_bytes) * 8.0 /
                                   (params_.bandwidth_bps * bandwidth_factor);
    SimDuration cost = params_.null_rtt / 2 +
                       static_cast<SimDuration>(serialization_s * 1e9);
    if (params_.jitter_fraction > 0.0) {
      const double j = jitter_rng_.next_double() * params_.jitter_fraction;
      cost += static_cast<SimDuration>(static_cast<double>(cost) * j);
    }
    stats_.messages += 1;
    stats_.bytes += payload_bytes;
    stats_.busy_time += cost;
    return cost;
  }

  [[nodiscard]] double bandwidth_factor_at(SimTime now) const noexcept {
    for (const DegradedWindow& w : plan_.degraded) {
      if (w.contains(now) && w.bandwidth_factor > 0.0) {
        return w.bandwidth_factor;
      }
    }
    return 1.0;
  }

  LinkParams params_;
  LinkStats stats_;
  FaultPlan plan_;
  Rng jitter_rng_;
  Rng drop_rng_;
  Rng chaos_rng_;
};

}  // namespace aide::netsim
