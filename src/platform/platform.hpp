// The AIDE distributed platform (the paper's primary contribution).
//
// A Platform pairs a resource-constrained client VM with a surrogate VM over
// a simulated wireless link and wires up the three modules of Figure 4:
//
//   Monitor   — ExecutionMonitor + ResourceMonitor attached to both VMs,
//   Partition — modified-MINCUT candidate evaluation against the configured
//               policy when a low-memory trigger fires (or on demand),
//   Remote    — rpc::Endpoint pair providing transparent remote invocations,
//               data access, reference mapping and distributed GC.
//
// Offloading is adaptive and transparent: the application executes through
// the client VM's ordinary context API; when the trigger policy fires (N
// successive low-memory GC reports) or an allocation would fail outright, the
// platform partitions the execution graph and migrates the selected
// components' objects to the surrogate. Execution then transparently follows
// the objects. A cut the platform chose itself stays provisional: if the
// traffic crossing it outruns the rate its decision predicted, the platform
// re-decides once on the longer history and migrates the difference both
// ways (revisions()).
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/effects.hpp"
#include "common/simclock.hpp"
#include "monitor/monitor.hpp"
#include "monitor/resource_monitor.hpp"
#include "netsim/link.hpp"
#include "partition/partitioner.hpp"
#include "partition/policy.hpp"
#include "platform/surrogate_registry.hpp"
#include "rpc/endpoint.hpp"
#include "vm/vm.hpp"

namespace aide::platform {

// Idle-period failure detection: when the client endpoint has been quiet for
// `idle_after` while connected and offloaded, a ping() probes the surrogate
// so a dead peer is detected before the next application RPC stalls on it.
// 0 disables heartbeats — the default, which keeps armed-but-inert fault
// plans bit-identical to fault-free runs.
struct HeartbeatPolicy {
  SimDuration idle_after = 0;
};

// What the platform does when the link fails, and how it comes back. Every
// failure leaves Mode::connected for one of two states:
//
//   disconnected — `enabled` and the partition detector suspects the link,
//     not the peer: hoard replicas of the surrogate-resident working set,
//     run locally while a coalescing redo log journals remote mutations,
//     and reconcile that log exactly once when a probe gets through.
//   dead — anything else: move the surviving surrogate state home and run
//     standalone. With `readmit` a delivered probe reconnects the pair under
//     a fresh epoch and re-offloads; without it the degradation is
//     permanent.
//
// Both are off by default: a failure is a permanent teardown.
struct DisconnectPolicy {
  bool enabled = false;
  bool readmit = false;
  // Rate limit of the reconnect probe sent while disconnected or dead, and
  // of proactive recalls while connected.
  SimDuration probe_interval = sim_ms(250);
  // Proactive hoard on a degrading link: while connected and offloaded, if
  // the Jacobson-estimated RTT exceeds this threshold the platform recalls
  // the prefetch-eligible working set (StaticHints: encapsulated-writes
  // classes) over the still-live link, so an eventual partition strands less
  // state. 0 disables the proactive path.
  SimDuration degrade_rtt = 0;
};

// The offload policy (link, surrogate speed-up, trigger, objective and the
// paper 5.2 enhancements) is the partition::OffloadPolicy base, shared with
// emul::EmulatorConfig; what follows is the live platform's own.
struct PlatformConfig : partition::OffloadPolicy {
  std::int64_t client_heap = std::int64_t{6} << 20;   // paper: 6 MB Java heap
  std::int64_t surrogate_heap = std::int64_t{64} << 20;
  // Client GC cadence: frequent cycles near exhaustion give the resource
  // monitor its "frequent memory usage updates" (paper 5.1).
  std::int64_t client_gc_alloc_count_threshold = 1024;
  std::int64_t client_gc_alloc_bytes_divisor = 32;

  // Deterministic link-fault schedule; an inert plan (the default) keeps the
  // platform bit-identical to the fault-free model.
  netsim::FaultPlan fault_plan;
  // RPC retry-with-backoff bounds, charged against virtual time.
  rpc::RetryPolicy retry;
  // Batched, pipelined transport (on by default): write-behind coalescing
  // into multi-op frames plus read-ahead object snapshots seeded with the
  // MINCUT partition groups of each offload. Application-transparent — only
  // frame counts and virtual-time latency change.
  rpc::BatchPolicy batching;
  // Idle-period heartbeat probing (off by default).
  HeartbeatPolicy heartbeat;
  // Failure handling: disconnected operation and re-admission (off by
  // default).
  DisconnectPolicy disconnect;
  // Recovery-channel cost model for pulling state back from a dead
  // surrogate: a flat re-handshake latency plus the reclaimed bytes over the
  // recovery bandwidth.
  SimDuration recovery_latency = sim_ms(200);
  double recovery_bandwidth_bps = 11e6;

  // Startup gates, see analysis::run_startup_gates. With full effect-IR
  // coverage the BatchSafety oracle is installed into both endpoints.
  bool static_analysis = true;
  bool effect_verify = true;

  // React to triggers automatically and revise provisional cuts; otherwise
  // only offload_now() offloads, and the cuts it makes are final.
  bool auto_offload = true;
};

struct OffloadReport {
  partition::PartitionDecision decision;
  std::size_t objects_migrated = 0;
  std::uint64_t bytes_migrated = 0;
  SimTime at = 0;
  SimTime completed_at = 0;
  std::int64_t client_heap_used_before = 0;
  std::int64_t client_heap_used_after = 0;
};

// One surrogate failure handled by the graceful-degradation path.
struct FailureReport {
  SimTime at = 0;
  std::size_t objects_reclaimed = 0;
  std::uint64_t bytes_reclaimed = 0;
};

// One successful re-admission of a recovered surrogate.
struct ReadmissionReport {
  SimTime at = 0;
  std::size_t ordinal = 0;        // 1 for the first re-admission, ...
  std::size_t probes_sent = 0;    // probes since the failure it recovers
  bool reoffloaded = false;       // the immediate re-partitioning migrated
};

// One disconnected-operation episode: entered on partition detection, left
// (resumed == true) when a reconcile both applied and acked over a live link.
struct DisconnectReport {
  SimTime at = 0;                    // partition detected, mode entered
  std::size_t objects_hoarded = 0;   // replicas pulled into the client heap
  std::uint64_t bytes_hoarded = 0;
  std::size_t reconciles = 0;        // redo logs applied on the peer
  std::size_t entries_replayed = 0;  // coalesced entries those logs carried
  bool resumed = false;              // back to connected partitioned execution
  SimTime resumed_at = 0;
};

// One proactive recall: prefetch-eligible state pulled back over a live but
// degrading link (DisconnectPolicy::degrade_rtt).
struct RecallReport {
  SimTime at = 0;
  std::size_t objects = 0;
  std::uint64_t bytes = 0;
};

// One revision of a provisional cut: the cut weight measured across an
// offload's set outran the rate its decision predicted, so the partitioner
// re-ran on the populated execution graph and the difference migrated both
// ways.
struct RevisionReport {
  SimTime at = 0;
  double predicted_rate = 0.0;  // cut weight per second the offload predicted
  double measured_rate = 0.0;   // cut weight per second measured since then
  partition::PartitionDecision decision;
  std::size_t objects_forward = 0;  // client -> surrogate
  std::uint64_t bytes_forward = 0;
  std::size_t objects_back = 0;     // surrogate -> client
  std::uint64_t bytes_back = 0;
};

class Platform : private vm::VmHooks {
 public:
  Platform(std::shared_ptr<const vm::ClassRegistry> registry,
           PlatformConfig config = {});
  ~Platform() override;

  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  // Convenience: builds a config from a registry-selected surrogate.
  static PlatformConfig config_for(const SurrogateInfo& surrogate,
                                   PlatformConfig base = {});

  [[nodiscard]] vm::Vm& client() noexcept { return *client_; }
  [[nodiscard]] vm::Vm& surrogate() noexcept { return *surrogate_; }
  [[nodiscard]] SimClock& clock() noexcept { return clock_; }
  [[nodiscard]] netsim::Link& link() noexcept { return link_; }
  [[nodiscard]] monitor::ExecutionMonitor& exec_monitor() noexcept {
    return exec_monitor_;
  }
  [[nodiscard]] monitor::ResourceMonitor& resource_monitor() noexcept {
    return resource_monitor_;
  }
  [[nodiscard]] rpc::Endpoint& client_endpoint() noexcept {
    return *client_ep_;
  }
  [[nodiscard]] rpc::Endpoint& surrogate_endpoint() noexcept {
    return *surrogate_ep_;
  }
  [[nodiscard]] const PlatformConfig& config() const noexcept {
    return config_;
  }
  // The startup static-analysis report (empty when static_analysis is off).
  [[nodiscard]] const std::optional<analysis::AnalysisReport>&
  analysis_report() const noexcept {
    return gates_.lint;
  }
  // The startup effect-verify report (empty when effect_verify is off).
  [[nodiscard]] const std::optional<analysis::VerifyReport>& verify_report()
      const noexcept {
    return gates_.verify;
  }
  // The batch-safety oracle serving both endpoints; null unless
  // effect_verify ran over a registry with 100% effect-IR coverage.
  [[nodiscard]] const analysis::BatchSafety* batch_safety() const noexcept {
    return gates_.oracle();
  }

  [[nodiscard]] const std::vector<OffloadReport>& offloads() const noexcept {
    return offloads_;
  }
  [[nodiscard]] bool offloaded() const noexcept { return !offloads_.empty(); }
  // Revisions of provisional cuts, at most one per offload; they do not
  // count against max_offloads.
  [[nodiscard]] const std::vector<RevisionReport>& revisions() const noexcept {
    return revisions_;
  }

  // --- link state -----------------------------------------------------------
  //
  // The legal edges are connected→disconnected, connected→dead,
  // disconnected→connected (reconcile) and dead→connected (re-admission);
  // any other change throws std::logic_error. "Suspect" is not a state: it
  // is the endpoints' rpc::PartitionDetector, consulted as a guard when a
  // failure picks disconnected over dead.
  enum class Mode : std::uint8_t { connected, disconnected, dead };
  [[nodiscard]] Mode mode() const noexcept { return mode_; }
  [[nodiscard]] bool surrogate_dead() const noexcept {
    return mode_ == Mode::dead;
  }
  [[nodiscard]] bool disconnected() const noexcept {
    return mode_ == Mode::disconnected;
  }
  // How often each edge was taken, indexed [from][to] by Mode; only the
  // four legal edges can be non-zero.
  using ModeEdgeCounts = std::array<std::array<std::size_t, 3>, 3>;
  [[nodiscard]] const ModeEdgeCounts& mode_edges() const noexcept {
    return mode_edges_;
  }

  [[nodiscard]] const std::vector<FailureReport>& failures() const noexcept {
    return failures_;
  }
  [[nodiscard]] const std::vector<ReadmissionReport>& readmissions()
      const noexcept {
    return readmissions_;
  }
  [[nodiscard]] const std::vector<DisconnectReport>& disconnects()
      const noexcept {
    return disconnects_;
  }
  [[nodiscard]] const std::vector<RecallReport>& recalls() const noexcept {
    return recalls_;
  }
  // The live redo log (test/bench visibility into coalescing behavior).
  [[nodiscard]] const vm::DisconnectLog& disconnect_log() const noexcept {
    return disconnect_log_;
  }

  // Registers the registry entry this platform's surrogate was selected
  // from, so a failure can be reported back for future selections.
  void attach_surrogate_registry(SurrogateRegistry* registry,
                                 NodeId surrogate_id) noexcept {
    surrogate_registry_ = registry;
    registered_surrogate_ = surrogate_id;
  }

  // Leaves Mode::connected after a failed RPC. Disconnected (partition
  // suspected, DisconnectPolicy::enabled): hoards replicas of the
  // surrogate's state. Dead (otherwise): severs the endpoint pair, reclaims
  // every surviving surrogate-resident object and marks the surrogate dead
  // in the attached registry. Either way the recovery channel is charged and
  // offload triggers are suppressed. Idempotent; returns true once the
  // client can run on its own.
  bool handle_peer_failure();

  // Evaluates the partitioning policy now; migrates and returns a report if a
  // beneficial offloading exists. `min_free_override` tightens/loosens the
  // memory constraint for forced (allocation-failure) offloads.
  std::optional<OffloadReport> offload_now(
      std::optional<std::int64_t> min_free_override = std::nullopt);

  // Total simulated time elapsed.
  [[nodiscard]] SimDuration elapsed() const noexcept { return clock_.now(); }

 private:
  // VmHooks: client GC, invocation exit and data access all run tick(). GC
  // cadence alone cannot be the timer: a workload that stops allocating
  // (hot loops over hoarded arrays, a program only invoking after a
  // failure) would starve the reconnect probe and never notice the link
  // returning; the probe interval gates the cost of the denser events.
  void on_gc(NodeId vm, const vm::GcReport& report) override;
  void on_invoke(const vm::InvokeEvent& ev) override;
  void on_access(const vm::AccessEvent& ev) override;
  // Connected: heartbeat and the provisional-cut check, plus (on GC only)
  // proactive recall and the offload trigger. Disconnected or dead: the
  // reconnect probe.
  void tick(NodeId vm, bool gc);

  // The only writer of mode_: checks the edge against the legal-edge table
  // and, on leaving connected, restarts the probe clock and counters.
  void set_mode(Mode to);
  // Idle-period liveness probe; a failed ping runs handle_peer_failure.
  void maybe_heartbeat();
  // Rate-limited reconnect probe; a delivered one runs readmit() when dead
  // and reconcile() when disconnected.
  void maybe_probe();
  // Dead → connected: reconnect under a fresh epoch and re-offload.
  void readmit();
  // Disconnected → connected once the redo log is applied and acked.
  void reconcile();
  // Pulls the surrogate's surviving objects into the client heap as mode_
  // (just set) dictates: moved when dead, copied as redo-logged replicas
  // when disconnected. Fills `ids` (sorted) and returns the bytes pulled
  // back.
  std::uint64_t pull_back(std::vector<ObjectId>& ids);
  void maybe_proactive_recall();
  // Pushes redo-log counter deltas into the client endpoint's stats.
  void sync_partition_stats();
  // max_offloads covers the normal policy; each re-admission is entitled to
  // one more migration on top of it.
  [[nodiscard]] std::size_t offload_budget() const noexcept {
    return config_.max_offloads + readmissions_.size();
  }

  bool low_memory_rescue(vm::Vm& vm);
  [[nodiscard]] partition::PartitionRequest make_request(
      std::optional<std::int64_t> min_free_override) const;
  // Runs the partitioner on the pruned execution graph and checks its choice
  // against the static verdict (std::logic_error on a pinned class).
  [[nodiscard]] partition::PartitionDecision decide(
      const partition::PartitionRequest& req);
  // Ships the client-resident objects of every component in `offload` to
  // the surrogate and seeds the read-ahead groups with them. Returns false
  // when the surrogate died under the migration (handle_peer_failure ran).
  bool migrate_forward(const std::unordered_set<graph::ComponentKey>& offload,
                       std::size_t& objects, std::uint64_t& bytes);
  // Cumulative policy cut weight on the execution graph between `offload`
  // and everything else.
  [[nodiscard]] double cut_weight_of(
      const std::unordered_set<graph::ComponentKey>& offload) const;
  // Once per window, compares the open provisional cut's measured cut rate
  // with its prediction and runs revise() when it is far off.
  void maybe_revise();
  // Re-decides the provisional cut on the populated graph and migrates the
  // difference: newly selected components forward, deselected ones back.
  void revise(double measured_rate);
  // The verify-layer hints when effect_verify ran (a superset of the
  // metadata-only ones), else the aidelint hints, else null.
  [[nodiscard]] const analysis::StaticHints* static_hints() const noexcept;
  void collect_reoffload_gravity();

  PlatformConfig config_;
  SimClock clock_;
  netsim::Link link_;
  std::shared_ptr<const vm::ClassRegistry> registry_;
  // Declared before the endpoints: they hold a non-owning pointer to its
  // oracle.
  analysis::StartupGates gates_;

  std::unique_ptr<vm::Vm> client_;
  std::unique_ptr<vm::Vm> surrogate_;
  std::unique_ptr<rpc::Endpoint> client_ep_;
  std::unique_ptr<rpc::Endpoint> surrogate_ep_;

  monitor::ExecutionMonitor exec_monitor_;
  monitor::ResourceMonitor resource_monitor_;

  std::vector<OffloadReport> offloads_;
  std::vector<RevisionReport> revisions_;
  // The latest offload's cut while it is still provisional: open from a
  // successful offload_now() until it is revised or the link leaves
  // connected. `cut_at` is the set's cumulative cut weight at the offload.
  struct ProvisionalCut {
    std::unordered_set<graph::ComponentKey> offload;
    double predicted_rate = 0.0;
    double cut_at = 0.0;
    SimTime at = 0;
    SimTime checked_at = 0;
  };
  std::optional<ProvisionalCut> provisional_;
  std::vector<FailureReport> failures_;
  std::vector<ReadmissionReport> readmissions_;
  bool offloading_in_progress_ = false;
  bool in_tick_ = false;  // reentrancy guard for tick()
  // Link state. A dead surrogate has no state worth reconciling (it was
  // pulled back); a disconnected one keeps its originals as the replay
  // target. The probe clock and counters restart on every exit from
  // connected: probes_ counts probes sent, reconcile_attempts_ the
  // delivered ones that ran reconcile() in this disconnection episode.
  Mode mode_ = Mode::connected;
  ModeEdgeCounts mode_edges_{};
  SimTime last_probe_at_ = 0;
  std::size_t probes_ = 0;
  std::size_t reconcile_attempts_ = 0;
  // Disconnected-operation state. The hoarded ids are the replicas to drop
  // at resume; the synced_* cursors track which log counters already
  // reached EndpointStats.
  vm::DisconnectLog disconnect_log_;
  std::vector<ObjectId> hoarded_ids_;
  // Components of the working tree rebuilt while disconnected, harvested
  // from the redo log's live values just before they ship; seeds the
  // post-reconcile re-offload with allocation gravity, then clears.
  std::unordered_set<graph::ComponentKey> reoffload_gravity_;
  // Admission threshold of the most recent successful offload, replayed by
  // the post-reconcile re-offload so resume restores the same placement
  // policy that was in effect when the partition hit.
  std::optional<std::int64_t> last_offload_min_free_;
  std::vector<DisconnectReport> disconnects_;
  std::vector<RecallReport> recalls_;
  SimTime last_recall_at_ = 0;
  std::uint64_t synced_journaled_ = 0;
  std::uint64_t synced_coalesced_ = 0;
  SurrogateRegistry* surrogate_registry_ = nullptr;
  NodeId registered_surrogate_ = NodeId::invalid();
};

}  // namespace aide::platform
