#include "platform/platform.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

#include "common/log.hpp"

namespace aide::platform {

namespace {
constexpr NodeId kClientNode{1};
constexpr NodeId kSurrogateNode{2};

// Payload of one reconnect probe (charged to the link when it delivers).
constexpr std::uint64_t kProbeBytes = 64;
// Re-admissions are capped per run; reconcile attempts per disconnection
// episode, so a flappy link gets a fresh allowance each time.
constexpr std::size_t kMaxReadmissions = 4;
constexpr std::size_t kMaxReconcileAttempts = 16;
// Allocation-gravity credit (cut-weight units per byte, scaled by the
// platform's edge_weight.bytes_factor) that post-reconcile offload decisions
// grant to components of the working tree the program used or rebuilt
// while disconnected. The MINCUT benefit model alone picks the
// cheapest-to-cut sliver and strands the rebuilt tree on the client
// (JavaNote pays +174% for it); the credit makes the rebuilt tree the
// preferred candidate.
constexpr double kReoffloadGravityCredit = 1.0;
// Provisional cut. An offload decided on a short execution history (a
// low-memory rescue during an application's load phase) can predict almost
// no traffic across its cut while the compute phase that follows re-reads
// the shipped state every iteration. At most once per window of virtual
// time the platform divides the cut weight that has crossed the offload set
// since the offload by the time since, and re-decides once when that rate
// exceeds the factor times the rate the decision predicted.
constexpr SimDuration kRevisionWindow = sim_sec(2);
constexpr double kRevisionFactor = 4.0;

using Mode = Platform::Mode;
// Indexed by Mode: kLegalEdges[from][to].
constexpr std::array<std::array<bool, 3>, 3> kLegalEdges = {{
    // to: connected, disconnected, dead
    {{false, true, true}},   // from connected
    {{true, false, false}},  // from disconnected: reconcile
    {{true, false, false}},  // from dead: re-admission
}};

constexpr std::array<const char*, 3> kModeNames = {"connected",
                                                    "disconnected", "dead"};
}  // namespace

Platform::Platform(std::shared_ptr<const vm::ClassRegistry> registry,
                   PlatformConfig config)
    : config_(config),
      link_(config.link),
      registry_(std::move(registry)),
      exec_monitor_(registry_,
                    monitor::MonitorConfig{monitor::GranularityPolicy{
                        config.enhancements.arrays_as_objects,
                        config.enhancements.min_array_bytes,
                        {registry_->int_array_class()}}}),
      resource_monitor_(kClientNode, config.trigger) {
  if (config_.static_analysis) {
    // Static partition-safety gate: refuse to run a program whose registry
    // has ERROR-severity findings; surface the warnings either way.
    analysis_ = analysis::analyze(*registry_);
    for (const auto& d : analysis_->diagnostics) {
      if (d.severity == analysis::Severity::warning) {
        AIDE_LOG_WARN("aidelint", d.format());
      }
    }
    if (!analysis_->ok()) throw analysis::AnalysisError(*analysis_);
  }
  if (config_.effect_verify) {
    // Effect-inference gate: infer whole-program summaries from the method
    // IR and audit every hand-declared annotation against them. Drift is a
    // programming error — refuse startup exactly like the gate above.
    verify_ = analysis::verify(*registry_);
    for (const auto& d : verify_->diagnostics) {
      if (d.severity == analysis::Severity::warning) {
        AIDE_LOG_WARN("aideverify", d.format());
      }
    }
    // Only verify-layer findings gate here; base lint errors belong to the
    // static_analysis gate above (and stay waivable independently of it).
    if (verify_->count(analysis::Severity::error) > 0) {
      auto merged = verify_->base;
      merged.diagnostics = verify_->diagnostics;
      throw analysis::AnalysisError(merged);
    }
  }

  vm::VmConfig client_cfg;
  client_cfg.node = kClientNode;
  client_cfg.name = "client";
  client_cfg.is_client = true;
  client_cfg.cpu_speed = 1.0;
  client_cfg.heap_capacity = config_.client_heap;
  client_cfg.gc_alloc_count_threshold =
      config_.client_gc_alloc_count_threshold;
  client_cfg.gc_alloc_bytes_divisor = config_.client_gc_alloc_bytes_divisor;
  client_cfg.stateless_natives_local =
      config_.enhancements.stateless_natives_local;
  client_ = std::make_unique<vm::Vm>(client_cfg, registry_, clock_);

  vm::VmConfig surrogate_cfg;
  surrogate_cfg.node = kSurrogateNode;
  surrogate_cfg.name = "surrogate";
  surrogate_cfg.is_client = false;
  surrogate_cfg.cpu_speed = config_.surrogate_speedup;
  surrogate_cfg.heap_capacity = config_.surrogate_heap;
  surrogate_cfg.stateless_natives_local =
      config_.enhancements.stateless_natives_local;
  surrogate_ = std::make_unique<vm::Vm>(surrogate_cfg, registry_, clock_);

  client_ep_ = std::make_unique<rpc::Endpoint>(*client_, link_);
  surrogate_ep_ = std::make_unique<rpc::Endpoint>(*surrogate_, link_);
  rpc::Endpoint::connect(*client_ep_, *surrogate_ep_);

  link_.set_fault_plan(config_.fault_plan);
  client_ep_->set_retry_policy(config_.retry);
  surrogate_ep_->set_retry_policy(config_.retry);
  client_ep_->set_batch_policy(config_.batching);
  surrogate_ep_->set_batch_policy(config_.batching);
  if (verify_.has_value() && verify_->methods_total > 0 &&
      verify_->methods_with_ir == verify_->methods_total) {
    // Full IR coverage: the inferred conflict matrix bounds every deferred
    // store, so the transport may consult it. Anything less proves nothing
    // (⊤ summaries poison the matrix) and would only force early flushes.
    batch_safety_.emplace(*verify_);
    client_ep_->set_batch_safety(&*batch_safety_);
    surrogate_ep_->set_batch_safety(&*batch_safety_);
  }
  if (config_.fault_plan.enabled()) {
    // Exactly-once recovery needs the undo journal; fault-free runs keep it
    // off so they stay bit-identical to the unjournaled platform.
    client_->set_journal_enabled(true);
    surrogate_->set_journal_enabled(true);
  }
  if (config_.disconnect.enabled) {
    // Arm the partition detector. Passive — counters and timestamps only —
    // so arming it never perturbs a schedule; it only changes what
    // handle_peer_failure decides when an RPC is finally abandoned.
    rpc::PartitionPolicy pp;
    pp.enabled = true;
    client_ep_->set_partition_policy(pp);
    // The surrogate's endpoint carries call-backs and release traffic; a
    // partition first surfaces on whichever side happens to be mid-RPC, so
    // both detectors must be armed and handle_peer_failure consults both.
    surrogate_ep_->set_partition_policy(pp);
  }
  client_ep_->set_peer_failure_handler([this] { return handle_peer_failure(); });

  client_->add_hooks(&exec_monitor_);
  client_->add_hooks(&resource_monitor_);
  client_->add_hooks(this);
  surrogate_->add_hooks(&exec_monitor_);

  client_->set_low_memory_handler(
      [this](vm::Vm& vm) { return low_memory_rescue(vm); });
}

Platform::~Platform() {
  client_->remove_hooks(this);
  client_->remove_hooks(&resource_monitor_);
  client_->remove_hooks(&exec_monitor_);
  surrogate_->remove_hooks(&exec_monitor_);
}

PlatformConfig Platform::config_for(const SurrogateInfo& surrogate,
                                    PlatformConfig base) {
  base.surrogate_heap = surrogate.heap_capacity;
  base.surrogate_speedup = surrogate.cpu_speed;
  base.link = surrogate.link;
  return base;
}

void Platform::on_gc(NodeId vm, const vm::GcReport&) { tick(vm, true); }

void Platform::on_invoke(const vm::InvokeEvent& ev) { tick(ev.vm, false); }

void Platform::on_access(const vm::AccessEvent& ev) {
  // A compute-heavy stretch can burn hundreds of simulated milliseconds
  // inside one method without a single invocation exit or GC; data accesses
  // are the only events dense enough to notice the link there.
  tick(ev.vm, false);
}

void Platform::tick(NodeId vm, bool gc) {
  if (vm != kClientNode || offloading_in_progress_ || in_tick_) return;
  in_tick_ = true;
  if (mode_ == Mode::disconnected) sync_partition_stats();
  if (mode_ != Mode::connected) {
    maybe_probe();
  } else {
    // Quiet-window detection: a long local stretch with an idle link never
    // GCs either, so the heartbeat runs on every event. It may leave
    // connected, and so may the recall.
    maybe_heartbeat();
    if (mode_ == Mode::connected) maybe_revise();
    if (gc && mode_ == Mode::connected) maybe_proactive_recall();
    if (gc && mode_ == Mode::connected && config_.auto_offload &&
        offloads_.size() < offload_budget() && resource_monitor_.triggered()) {
      resource_monitor_.consume_trigger();
      offload_now();
    }
  }
  in_tick_ = false;
}

void Platform::set_mode(Mode to) {
  const auto from = static_cast<std::size_t>(mode_);
  const auto next = static_cast<std::size_t>(to);
  if (!kLegalEdges[from][next]) {
    throw std::logic_error(std::string("illegal link transition ") +
                           kModeNames[from] + " -> " + kModeNames[next]);
  }
  mode_ = to;
  mode_edges_[from][next] += 1;
  if (to == Mode::connected) return;
  // The placement the provisional cut described is gone.
  provisional_.reset();
  // Probing starts one probe_interval from now.
  last_probe_at_ = clock_.now();
  probes_ = 0;
  reconcile_attempts_ = 0;
}

void Platform::maybe_heartbeat() {
  if (config_.heartbeat.idle_after <= 0 || !offloaded()) return;
  if (clock_.now() - client_ep_->last_contact() < config_.heartbeat.idle_after) {
    return;
  }
  if (!client_ep_->ping()) handle_peer_failure();
}

void Platform::maybe_probe() {
  const bool capped =
      mode_ == Mode::dead
          ? !config_.disconnect.readmit ||
                readmissions_.size() >= kMaxReadmissions
          : reconcile_attempts_ >= kMaxReconcileAttempts;
  if (capped || clock_.now() - last_probe_at_ <
                    config_.disconnect.probe_interval) {
    return;
  }
  last_probe_at_ = clock_.now();
  probes_ += 1;
  const auto probe =
      link_.try_one_way(kProbeBytes, clock_.now(), netsim::Leg::request);
  if (!probe.delivered) return;
  clock_.advance(probe.cost);
  if (mode_ == Mode::dead) {
    readmit();
  } else {
    reconcile();
  }
}

void Platform::readmit() {
  // The recovered surrogate starts from an empty heap (its state was pulled
  // back at failure time); reconnect the pair under a fresh migration epoch
  // so any frame from before the failure is fenced, re-arm the triggers, and
  // re-run the partitioning policy immediately — the memory pressure that
  // forced the original offload did not go away with the failure.
  rpc::Endpoint::connect(*client_ep_, *surrogate_ep_);
  client_ep_->advance_epoch();
  set_mode(Mode::connected);

  ReadmissionReport report;
  report.at = clock_.now();
  report.ordinal = readmissions_.size() + 1;
  report.probes_sent = probes_;
  readmissions_.push_back(report);

  resource_monitor_.note_peer_recovered();
  if (surrogate_registry_ != nullptr && registered_surrogate_.valid()) {
    surrogate_registry_->mark_alive(registered_surrogate_);
  }

  // Like low_memory_rescue: prefer the policy's own constraint, but restore
  // the pre-failure placement even when only a smaller win is available —
  // the device already proved it cannot run the workload comfortably alone.
  auto offload = offload_now();
  if (!offload.has_value()) {
    offload = offload_now(std::int64_t{1});
  }
  readmissions_.back().reoffloaded = offload.has_value();
  AIDE_LOG_INFO("platform", "surrogate re-admitted at ", report.at,
                "ns (probe #", report.probes_sent, "), re-offload ",
                offload.has_value() ? "succeeded" : "deferred");
}

bool Platform::low_memory_rescue(vm::Vm&) {
  if (offloading_in_progress_ || mode_ != Mode::connected) return false;
  // Forced offload: free at least the configured fraction, but accept any
  // partitioning that frees something if the policy's constraint cannot be
  // met — failing the allocation is strictly worse.
  auto report = offload_now();
  if (!report.has_value()) {
    report = offload_now(std::int64_t{1});
  }
  return report.has_value();
}

partition::PartitionRequest Platform::make_request(
    std::optional<std::int64_t> min_free_override) const {
  partition::PartitionRequest req;
  req.objective = config_.objective;
  req.heap_capacity = config_.client_heap;
  req.min_free_bytes =
      min_free_override.value_or(static_cast<std::int64_t>(
          config_.min_free_fraction *
          static_cast<double>(config_.client_heap)));
  req.client_speed = 1.0;
  req.surrogate_speedup = config_.surrogate_speedup;
  req.min_improvement = config_.min_improvement;
  req.link = config_.link;
  const SimTime since = offloads_.empty() ? 0 : offloads_.back().at;
  req.history_duration = std::max<SimDuration>(clock_.now() - since, 1);
  req.weight = config_.edge_weight;
  if (!reoffload_gravity_.empty()) {
    req.reoffload_gravity = &reoffload_gravity_;
    req.gravity_credit_per_byte =
        kReoffloadGravityCredit * config_.edge_weight.bytes_factor;
  }
  if (config_.use_static_hints) req.hints = static_hints();
  return req;
}

const analysis::StaticHints* Platform::static_hints() const noexcept {
  // The verify-layer hints have the same contraction fields as the
  // metadata-only ones plus replay/prefetch facts, so preferring them
  // changes nothing unless effect_verify found more.
  if (verify_.has_value()) return &verify_->hints;
  if (analysis_.has_value()) return &analysis_->hints;
  return nullptr;
}

bool Platform::handle_peer_failure() {
  if (mode_ != Mode::connected) return true;
  // A sustained partition is not a dead surrogate: when the detector says
  // the link (not the peer) is gone, keep the surrogate's state where it is
  // and run disconnected against hoarded replicas instead of tearing the
  // offload down.
  const bool partitioned =
      config_.disconnect.enabled && (client_ep_->partition_suspected() ||
                                     surrogate_ep_->partition_suspected());
  set_mode(partitioned ? Mode::disconnected : Mode::dead);
  const SimTime at = clock_.now();
  std::vector<ObjectId> ids;
  const std::uint64_t bytes = pull_back(ids);

  if (partitioned) {
    // A fresh disconnection era: gravity harvested from the previous
    // reconcile no longer describes the working set this episode builds.
    reoffload_gravity_.clear();
    // The registry is NOT told the surrogate died — it is expected back.
    client_ep_->note_disconnect_detected();
    disconnects_.push_back(DisconnectReport{at, ids.size(), bytes});
    AIDE_LOG_INFO("platform", "partition detected at ", at, "ns; hoarded ",
                  ids.size(), " replicas (", bytes / 1024,
                  "KB), running disconnected");
    hoarded_ids_ = std::move(ids);
  } else {
    // Tell the registry not to hand this surrogate out again.
    if (surrogate_registry_ != nullptr && registered_surrogate_.valid()) {
      surrogate_registry_->mark_dead(registered_surrogate_);
    }
    failures_.push_back(FailureReport{at, ids.size(), bytes});
    AIDE_LOG_INFO("platform", "surrogate failed at ", at, "ns; reclaimed ",
                  ids.size(), " objects (", bytes / 1024,
                  "KB), continuing local");
  }
  return true;
}

std::uint64_t Platform::pull_back(std::vector<ObjectId>& ids) {
  const bool hoard = mode_ == Mode::disconnected;
  // Enumerate the surviving surrogate state before severing anything
  // (sorted: determinism of the adoption order, and thus of every
  // downstream byte).
  surrogate_->heap().for_each(
      [&](const vm::Object& o) { ids.push_back(o.id); });
  std::sort(ids.begin(), ids.end());

  // Sever the pair first: release handlers become no-ops and no regular RPC
  // can charge the failed link while state comes home. A partition keeps
  // both RefMaps — both heaps survive and reconcile needs them to keep
  // resolving.
  if (hoard) {
    client_ep_->detach_partitioned();
  } else {
    client_ep_->disconnect();
  }

  // Adopt every surviving object into the client heap. A dead surrogate
  // gives its objects up; a partitioned one keeps its originals as the
  // replay target (it is provably idle while partitioned — the two VMs never
  // execute simultaneously) and the client adopts replicas. Each adoptee is
  // pinned until the whole batch lands: a client GC forced by
  // ensure_capacity mid-loop cannot yet see the surrogate-side references
  // among them.
  std::uint64_t bytes = 0;
  for (const ObjectId id : ids) {
    std::unique_ptr<vm::Object> obj =
        hoard ? std::make_unique<vm::Object>(*surrogate_->find_object(id))
              : surrogate_->migrate_out(id);
    bytes += static_cast<std::uint64_t>(obj->size_bytes());
    client_->migrate_in(std::move(obj));
    client_->add_root(vm::ObjectRef{id});
  }
  for (const ObjectId id : ids) {
    client_->remove_root(vm::ObjectRef{id});
  }

  if (hoard) {
    // Install the redo log watching exactly the replicas, BEFORE flushing
    // the write-behind queue: the queued stores now target local replicas
    // and their local application must be captured for replay like any
    // other disconnected-era mutation.
    disconnect_log_.clear_entries();
    disconnect_log_.watch(ids);
    client_->set_redo_log(&disconnect_log_);
  }
  // Any write-behind ops still queued against the surrogate now target
  // local objects; land them before the application resumes.
  client_ep_->flush_pending();

  // Charge the recovery channel: failure detection plus shipping the state
  // back over whatever path survived.
  clock_.advance(config_.recovery_latency +
                 static_cast<SimDuration>(static_cast<double>(bytes) * 8.0 /
                                          config_.recovery_bandwidth_bps *
                                          1e9));
  // Nowhere to offload to: stop raising triggers.
  resource_monitor_.note_peer_failure();
  return bytes;
}

std::optional<OffloadReport> Platform::offload_now(
    std::optional<std::int64_t> min_free_override) {
  if (offloading_in_progress_ || mode_ != Mode::connected) {
    return std::nullopt;
  }
  offloading_in_progress_ = true;

  const auto req = make_request(min_free_override);
  const auto decision = decide(req);
  if (!decision.offload) {
    AIDE_LOG_INFO("platform", "no beneficial partitioning (",
                  decision.candidates_total, " candidates)");
    offloading_in_progress_ = false;
    return std::nullopt;
  }

  OffloadReport report;
  report.decision = decision;
  report.at = clock_.now();
  report.client_heap_used_before = client_->heap().used();
  if (!migrate_forward(decision.selected.offload, report.objects_migrated,
                       report.bytes_migrated)) {
    return std::nullopt;
  }
  report.completed_at = clock_.now();
  report.client_heap_used_after = client_->heap().used();

  AIDE_LOG_INFO("platform", "offloaded ", report.objects_migrated,
                " objects, ", report.bytes_migrated, " bytes, heap ",
                report.client_heap_used_before / 1024, "KB -> ",
                report.client_heap_used_after / 1024, "KB");

  offloads_.push_back(report);
  last_offload_min_free_ = min_free_override;
  // Under auto_offload the platform owns placement, so its cut stays
  // provisional: traffic across it must bear out the rate the decision
  // predicted from its history. A caller driving offload_now() itself owns
  // its cuts.
  if (config_.auto_offload) {
    provisional_ = ProvisionalCut{
        decision.selected.offload,
        decision.selected.cut_weight / sim_to_seconds(req.history_duration),
        cut_weight_of(decision.selected.offload), report.completed_at,
        report.completed_at};
  }
  offloading_in_progress_ = false;
  return report;
}

partition::PartitionDecision Platform::decide(
    const partition::PartitionRequest& req) {
  exec_monitor_.prune_dead_components();
  auto decision = partition::decide_partitioning(exec_monitor_.graph(), req);
  if (!decision.offload) return decision;

  // Defense in depth: whenever the static analysis ran, the dynamic decision
  // must agree with its verdict. A pin root may never offload; with hints
  // enabled the whole pinned closure may not either. A violation is a
  // partitioner bug, not a policy outcome — fail loudly with
  // std::logic_error.
  if (analysis_.has_value()) {
    for (const auto& comp : decision.selected.offload) {
      const bool illegal =
          analysis_->is_pin_root(comp.cls) ||
          (config_.use_static_hints && analysis_->in_closure(comp.cls));
      if (illegal) {
        offloading_in_progress_ = false;
        throw std::logic_error(
            "static/dynamic verdict mismatch: partitioner selected pinned "
            "class '" +
            registry_->get(comp.cls).name + "' for offload");
      }
    }
  }
  return decision;
}

bool Platform::migrate_forward(
    const std::unordered_set<graph::ComponentKey>& offload,
    std::size_t& objects, std::uint64_t& bytes) {
  // Gather the client-resident objects of every selected component. The
  // monitor's component mapping respects the granularity policy: an
  // object-granularity array moves alone; a class component moves all of its
  // (class-mapped) objects.
  std::vector<ObjectId> to_move;
  std::vector<std::vector<ObjectId>> groups;
  for (const auto& comp : offload) {
    std::vector<ObjectId> members;
    if (comp.is_object_granularity()) {
      if (client_->is_local(comp.object)) members.push_back(comp.object);
    } else {
      for (const ObjectId id : client_->local_objects_of_class(comp.cls)) {
        if (exec_monitor_.component_of(comp.cls, id) == comp) {
          members.push_back(id);
        }
      }
    }
    std::sort(members.begin(), members.end());
    to_move.insert(to_move.end(), members.begin(), members.end());
    // MINCUT put these objects in one component because they are accessed
    // together; that is exactly the read-ahead transport's prefetch unit.
    if (members.size() > 1) groups.push_back(std::move(members));
  }
  std::sort(to_move.begin(), to_move.end());
  if (to_move.empty()) return true;

  try {
    bytes = client_ep_->migrate_objects(to_move);
  } catch (const PeerUnavailable&) {
    // The surrogate died under the migration. migrate_objects already put
    // the batch wherever it authoritatively lives; reclaim it and carry on
    // fully local.
    offloading_in_progress_ = false;
    handle_peer_failure();
    return false;
  }
  objects = to_move.size();
  // Seed the client transport's read-ahead with the colocation groups this
  // decision just shipped: a remote get against one member prefetches the
  // neighbors it will be accessed with.
  client_ep_->set_prefetch_groups(std::move(groups));
  return true;
}

double Platform::cut_weight_of(
    const std::unordered_set<graph::ComponentKey>& offload) const {
  double weight = 0.0;
  for (const auto& [key, edge] : exec_monitor_.graph().edges()) {
    if (offload.contains(key.a) != offload.contains(key.b)) {
      weight += config_.edge_weight(edge);
    }
  }
  return weight;
}

void Platform::maybe_revise() {
  if (!provisional_.has_value() ||
      clock_.now() - provisional_->checked_at < kRevisionWindow) {
    return;
  }
  provisional_->checked_at = clock_.now();
  const double measured_rate =
      (cut_weight_of(provisional_->offload) - provisional_->cut_at) /
      sim_to_seconds(clock_.now() - provisional_->at);
  if (measured_rate > kRevisionFactor * provisional_->predicted_rate) {
    revise(measured_rate);
  }
}

void Platform::revise(double measured_rate) {
  offloading_in_progress_ = true;
  // Filled in place: nothing below appends to revisions_ (revise() runs
  // inside tick(), which does not reenter).
  RevisionReport& report = revisions_.emplace_back();
  report.at = clock_.now();
  report.predicted_rate = provisional_->predicted_rate;
  report.measured_rate = measured_rate;
  // One revision per offload: whatever it decides is final.
  provisional_.reset();
  report.decision = decide(make_request(last_offload_min_free_));
  const auto& offload = report.decision.selected.offload;
  // No beneficial cut keeps the current one; a failed forward leg already
  // ran handle_peer_failure.
  if (!report.decision.offload ||
      !migrate_forward(offload, report.objects_forward,
                       report.bytes_forward)) {
    offloading_in_progress_ = false;
    return;
  }

  // Pull back what the revised cut keeps on the client (sorted: the
  // migration order is part of every downstream byte).
  std::vector<ObjectId> back;
  surrogate_->heap().for_each([&](const vm::Object& o) {
    if (!offload.contains(exec_monitor_.component_of(o.cls, o.id))) {
      back.push_back(o.id);
    }
  });
  std::sort(back.begin(), back.end());
  if (!back.empty()) {
    try {
      report.bytes_back = surrogate_ep_->migrate_objects(back);
      report.objects_back = back.size();
    } catch (const PeerUnavailable&) {
      // As for the forward leg: migrate_objects left the batch wherever it
      // authoritatively lives; the failure path takes it from here.
      offloading_in_progress_ = false;
      handle_peer_failure();
      return;
    }
  }
  AIDE_LOG_INFO("platform", "revised provisional cut (predicted ",
                report.predicted_rate, "/s, measured ", measured_rate,
                "/s): ", report.objects_forward, " objects forward, ",
                report.objects_back, " back");
  offloading_in_progress_ = false;
}

// --- disconnected operation ----------------------------------------------------

void Platform::sync_partition_stats() {
  client_ep_->note_partition_stats(
      disconnect_log_.ops_journaled() - synced_journaled_,
      disconnect_log_.ops_coalesced() - synced_coalesced_);
  synced_journaled_ = disconnect_log_.ops_journaled();
  synced_coalesced_ = disconnect_log_.ops_coalesced();
}

void Platform::reconcile() {
  reconcile_attempts_ += 1;
  sync_partition_stats();
  rpc::Endpoint::connect(*client_ep_, *surrogate_ep_);

  bool applied = false;
  try {
    applied = client_ep_->reconcile_log(disconnect_log_);
  } catch (const PeerUnavailable&) {
    // Unreachable with the log not applied: keep the log, keep the replicas,
    // retry on a later probe. Exactly-once holds because nothing landed.
    applied = false;
  } catch (const VmError&) {
    // The peer rejected or rolled back the replay (semantic failure). The
    // serving side unwound atomically, so the log is still intact to retry.
    applied = false;
  }

  const auto& traces = client_ep_->reconciles();
  const bool acked = applied && !traces.empty() && traces.back().committed;
  if (applied) {
    // The mutations landed exactly once; they must never replay again. A
    // fresh log accumulates whatever the application writes from here on.
    disconnects_.back().reconciles += 1;
    disconnects_.back().entries_replayed += traces.back().entries;
    // Harvest allocation gravity while the log still holds its values: the
    // live field entries are the attach points the reconciled roots hold
    // into everything built while disconnected.
    collect_reoffload_gravity();
    disconnect_log_.clear_entries();
  }
  if (!acked) {
    // Either not applied (retry the same log later) or applied with the ack
    // lost (fresh log, still partitioned). Both stay disconnected, and the
    // refs stay: the next attempt reconciles with the same surviving heap.
    client_ep_->detach_partitioned();
    return;
  }

  // Applied and acked over a live link: resume partitioned execution. Drop
  // the replicas — the surrogate's replayed originals are authoritative
  // again — leaving stubs behind so remote access resolves as before.
  client_->set_redo_log(nullptr);
  for (const ObjectId id : hoarded_ids_) {
    if (client_->is_local(id)) {
      (void)client_->migrate_out(id);  // discard the replica, keep the stub
    }
  }
  hoarded_ids_.clear();
  disconnect_log_.reset();
  synced_journaled_ = 0;
  synced_coalesced_ = 0;
  set_mode(Mode::connected);
  resource_monitor_.note_peer_recovered();
  disconnects_.back().resumed = true;
  disconnects_.back().resumed_at = clock_.now();
  AIDE_LOG_INFO("platform", "reconciled ",
                disconnects_.back().entries_replayed,
                " redo entries; partitioned execution resumed at ",
                clock_.now(), "ns");

  // Everything the application allocated while away sits on the client, but
  // the remote working set it interleaves with went back with the replicas —
  // left split, the rest of the run ping-pongs across the link for state the
  // partitioner would colocate. Re-run the offload decision under the same
  // admission threshold that produced the pre-partition placement, seeded
  // with the harvested allocation gravity so the rebuilt tree outranks a
  // cheaper-to-cut sliver; a "no beneficial partitioning" verdict leaves
  // everything where it is. The gravity keys are allocation-site components,
  // so the seed stays live for trigger-driven evaluations after this one —
  // a short outage reconciles before the program has rebuilt much, and the
  // tree it keeps growing at those same sites still needs the pull. A new
  // disconnection starts a fresh era (handle_peer_failure clears).
  (void)offload_now(last_offload_min_free_);
}

void Platform::collect_reoffload_gravity() {
  // BFS over client-local references from the redo log's watch set: the
  // hoarded replicas (still client-local here — they drop only after the
  // ack) plus every live journaled value. Everything reachable belongs to
  // the working tree the disconnected program used or rebuilt — allocation-
  // heavy apps grow that tree under hoarded containers without journaling a
  // single surrogate write, so the hoard seeds are what find it — and that
  // tree is exactly what the post-reconcile re-offload should pull back
  // together.
  std::vector<ObjectId> stack(hoarded_ids_.begin(), hoarded_ids_.end());
  disconnect_log_.for_each_live_value([&](const vm::Value& v) {
    if (v.is_ref()) stack.push_back(v.as_ref().id);
  });
  std::unordered_set<ObjectId> seen;
  while (!stack.empty()) {
    const ObjectId id = stack.back();
    stack.pop_back();
    if (!seen.insert(id).second) continue;
    if (!client_->is_local(id)) continue;
    const vm::Object* o = client_->find_object(id);
    if (o == nullptr) continue;
    reoffload_gravity_.insert(exec_monitor_.component_of(o->cls, id));
    for (const vm::Value& f : o->fields) {
      if (f.is_ref()) stack.push_back(f.as_ref().id);
    }
  }
}

void Platform::maybe_proactive_recall() {
  const DisconnectPolicy& pol = config_.disconnect;
  if (!pol.enabled || pol.degrade_rtt <= 0 || !offloaded()) return;
  const rpc::RttEstimator& rtt = client_ep_->rtt_estimator();
  if (!rtt.primed ||
      static_cast<SimDuration>(rtt.srtt) <= pol.degrade_rtt) {
    return;
  }
  if (last_recall_at_ != 0 &&
      clock_.now() - last_recall_at_ < pol.probe_interval) {
    return;
  }
  last_recall_at_ = clock_.now();

  // Choose what to hoard with the static hints: prefetch-eligible classes
  // (encapsulated writes) are exactly the objects the client can keep
  // coherent locally, so they come home first while the link still works.
  const analysis::StaticHints* hints = static_hints();
  if (hints == nullptr || hints->prefetch_eligible.empty()) return;

  std::vector<ObjectId> ids;
  surrogate_->heap().for_each([&](const vm::Object& o) {
    if (std::binary_search(hints->prefetch_eligible.begin(),
                           hints->prefetch_eligible.end(), o.cls)) {
      ids.push_back(o.id);
    }
  });
  std::sort(ids.begin(), ids.end());
  if (ids.empty()) return;

  try {
    // A real reverse migration over the live (if slow) link: two-phase,
    // epoch-fenced, rollback on death — the surrogate keeps nothing.
    const std::uint64_t bytes = surrogate_ep_->migrate_objects(ids);
    recalls_.push_back(RecallReport{clock_.now(), ids.size(), bytes});
    AIDE_LOG_INFO("platform", "degrading link (srtt ",
                  static_cast<SimDuration>(rtt.srtt), "ns): recalled ",
                  ids.size(), " objects (", bytes / 1024, "KB)");
  } catch (const PeerUnavailable&) {
    // The link died under the recall; migrate_objects already rolled the
    // batch to wherever it authoritatively lives. Let the normal failure
    // path (which may choose disconnected mode) take it from here.
    handle_peer_failure();
  }
}

}  // namespace aide::platform
