#include "emul/emulator.hpp"

#include <algorithm>
#include <cassert>

namespace aide::emul {

namespace {
constexpr NodeId kEmulatedClient{1};
}  // namespace

Emulator::Emulator(std::shared_ptr<const vm::ClassRegistry> registry,
                   EmulatorConfig config)
    : registry_(std::move(registry)), config_(config) {}

SimDuration Emulator::rpc_cost(std::uint64_t bytes) const {
  // Analytic probe: must never touch a live Link's stats or jitter stream.
  return netsim::estimate_rpc_cost(config_.link, bytes);
}

void Emulator::charge_service(SimDuration service, ServiceKind kind) {
  if (service_ == nullptr || service <= 0) return;
  result_.queue_time += service_->acquire(current_time(), service, kind);
}

void Emulator::try_offload(SimTime at, EmulationResult& result) {
  monitor_->prune_dead_components();

  if (!config_.manual_offload_classes.empty()) {
    partition::PartitionDecision manual;
    manual.offload = true;
    for (const std::string& name : config_.manual_offload_classes) {
      const ClassId cls = registry_->find(name);
      for (const auto& [key, info] : monitor_->graph().nodes()) {
        if (key.cls == cls) manual.selected.offload.insert(key);
      }
    }
    std::uint64_t moved = 0;
    for (const auto& key : manual.selected.offload) {
      if (offloaded_.insert(key).second) {
        if (const auto* node = monitor_->graph().find_node(key)) {
          moved += static_cast<std::uint64_t>(
              std::max<std::int64_t>(node->mem_bytes, 0));
          manual.selected.offload_mem_bytes += node->mem_bytes;
        }
      }
    }
    const SimDuration cost = rpc_cost(moved);
    charge_service(cost, ServiceKind::migration);
    result.migration_time += cost;
    OffloadSnapshot snap;
    snap.at = at;
    snap.decision = std::move(manual);
    snap.migrated_bytes = moved;
    snap.components = snap.decision.selected.offload.size();
    result.offloads.push_back(std::move(snap));
    return;
  }

  // History is the trace time replayed so far.
  const auto decision = partition::decide_partitioning(
      monitor_->graph(), config_.request(config_.heap_capacity, at));
  if (!decision.offload) {
    result.declined.push_back(decision);
    return;
  }

  // Apply the new placement; charge migration for every component that
  // changes side (repeated repartitioning may also pull components back).
  // Everything that moves ships as one batch.
  std::uint64_t moved_bytes = 0;
  for (const auto& [key, info] : monitor_->graph().nodes()) {
    const bool want = decision.selected.offload.contains(key);
    if (want == on_surrogate(key)) continue;
    moved_bytes += static_cast<std::uint64_t>(
        std::max<std::int64_t>(info.mem_bytes, 0));
    if (want) {
      offloaded_.insert(key);
    } else {
      offloaded_.erase(key);
    }
  }

  const SimDuration cost = rpc_cost(moved_bytes);
  charge_service(cost, ServiceKind::migration);
  result.migration_time += cost;

  OffloadSnapshot snap;
  snap.at = at;
  snap.decision = decision;
  snap.migrated_bytes = moved_bytes;
  snap.components = decision.selected.offload.size();
  result.offloads.push_back(std::move(snap));
}

void Emulator::begin(const Trace& trace) {
  monitor_ = std::make_unique<monitor::ExecutionMonitor>(
      registry_, monitor::MonitorConfig{
                     config_.granularity(registry_->int_array_class())});
  resource_ = std::make_unique<monitor::ResourceMonitor>(kEmulatedClient,
                                                         config_.trigger);
  offloaded_.clear();
  live_bytes_ = 0;
  freed_since_gc_ = 0;
  alloc_since_gc_ = 0;

  trace_ = &trace;
  event_ix_ = 0;
  aux_ix_ = 0;
  last_event_t_ = 0;
  result_ = EmulationResult{};
  result_.base_time = trace.duration();
  compute_raw_ = 0;
  compute_scaled_ = 0;
  gc_cycle_ = 0;
  eval_index_ = static_cast<std::size_t>(static_cast<double>(trace.size()) *
                                         config_.eval_at_fraction);
  fraction_evaluated_ = false;
}

void Emulator::replay_event(const TraceEvent& e) {
  last_event_t_ = e.t;
  const auto [obj_a, cls_a] = trace_->refs[e.a];
  const auto [obj_b, cls_b] = trace_->refs[e.b];
  const MethodId method = trace_->methods[e.method];
  // Events replay in order, so the aux side table is read with a cursor.
  std::int64_t bytes = e.bytes;
  std::int64_t aux1 = 0;
  if ((e.flags & kFlagAux) != 0) {
    const TraceAux& x = trace_->aux[aux_ix_++];
    assert(x.event == event_ix_);
    bytes = x.bytes;
    aux1 = x.aux1;
  }
  switch (e.type) {
    case TraceEventType::alloc:
      monitor_->on_alloc(kEmulatedClient, obj_a, cls_a, bytes, e.t);
      live_bytes_ += bytes;
      alloc_since_gc_ += bytes;
      break;

    case TraceEventType::free_obj:
      monitor_->on_free(kEmulatedClient, obj_a, cls_a, bytes, e.t);
      live_bytes_ -= bytes;
      freed_since_gc_ += bytes;
      break;

    case TraceEventType::resize:
      monitor_->on_resize(kEmulatedClient, obj_a, cls_a, aux1);
      live_bytes_ += aux1;
      break;

    case TraceEventType::method_enter:
      break;

    case TraceEventType::method_exit: {
      monitor_->on_method_exit(kEmulatedClient, cls_a, obj_a, method, bytes,
                               e.t);
      const bool remote_exec =
          on_surrogate(monitor_->component_of(cls_a, obj_a));
      const double speed = remote_exec ? config_.surrogate_speedup : 1.0;
      const auto scaled =
          static_cast<SimDuration>(static_cast<double>(bytes) / speed);
      compute_raw_ += bytes;
      compute_scaled_ += scaled;
      // Surrogate-placed self-time occupies the surrogate CPU.
      if (remote_exec) charge_service(scaled, ServiceKind::compute);
      break;
    }

    case TraceEventType::invoke: {
      const bool is_native = (e.flags & kFlagNative) != 0;
      const bool is_static = (e.flags & kFlagStatic) != 0;
      const bool is_stateless = (e.flags & kFlagStateless) != 0;

      const bool from_s = on_surrogate(monitor_->component_of(cls_a, obj_a));
      bool to_s;
      if (is_native) {
        // Natives execute on the client — unless stateless and the
        // "Native" enhancement is on, in which case they run where invoked.
        to_s = is_stateless && config_.stateless_natives_local && from_s;
      } else if (is_static) {
        // Managed statics run on the invoking VM.
        to_s = from_s;
      } else {
        to_s = on_surrogate(monitor_->component_of(cls_b, obj_b));
      }
      const bool remote = from_s != to_s;

      result_.total_invocations += 1;
      if (remote) {
        result_.remote_invocations += 1;
        if (is_native) result_.remote_native_invocations += 1;
        result_.remote_bytes += static_cast<std::uint64_t>(bytes);
        const SimDuration cost =
            rpc_cost(static_cast<std::uint64_t>(bytes));
        charge_service(cost, ServiceKind::remote_op);
        result_.comm_time += cost;
      }

      vm::InvokeEvent ev;
      ev.vm = kEmulatedClient;
      ev.caller_cls = cls_a;
      ev.caller_obj = obj_a;
      ev.callee_cls = cls_b;
      ev.callee_obj = obj_b;
      ev.method = method;
      ev.is_native = is_native;
      ev.is_static = is_static;
      ev.is_stateless = is_stateless;
      ev.remote = remote;
      ev.bytes = static_cast<std::uint64_t>(bytes);
      ev.t = e.t;
      monitor_->on_invoke(ev);
      break;
    }

    case TraceEventType::access: {
      const bool is_static = (e.flags & kFlagStatic) != 0;
      const bool from_s = on_surrogate(monitor_->component_of(cls_a, obj_a));
      // Static data lives on the client; object data follows placement.
      const bool to_s =
          !is_static && on_surrogate(monitor_->component_of(cls_b, obj_b));
      const bool remote = from_s != to_s;

      result_.total_accesses += 1;
      if (remote) {
        result_.remote_accesses += 1;
        result_.remote_bytes += static_cast<std::uint64_t>(bytes);
        const SimDuration cost =
            rpc_cost(static_cast<std::uint64_t>(bytes));
        charge_service(cost, ServiceKind::remote_op);
        result_.comm_time += cost;
      }

      vm::AccessEvent ev;
      ev.vm = kEmulatedClient;
      ev.from_cls = cls_a;
      ev.from_obj = obj_a;
      ev.to_cls = cls_b;
      ev.to_obj = obj_b;
      ev.is_write = (e.flags & kFlagWrite) != 0;
      ev.is_static = is_static;
      ev.remote = remote;
      ev.bytes = static_cast<std::uint64_t>(bytes);
      ev.t = e.t;
      monitor_->on_access(ev);
      break;
    }

    case TraceEventType::gc: {
      // Emulated client heap: total live bytes minus what has been
      // offloaded to the surrogate.
      std::int64_t offloaded = 0;
      for (const auto& key : offloaded_) {
        if (const auto* node = monitor_->graph().find_node(key)) {
          offloaded += std::max<std::int64_t>(node->mem_bytes, 0);
        }
      }
      const std::int64_t client_live =
          std::max<std::int64_t>(live_bytes_ - offloaded, 0);
      result_.peak_client_live =
          std::max(result_.peak_client_live, client_live);

      vm::GcReport rep;
      rep.cycle = ++gc_cycle_;
      rep.used_before = client_live + freed_since_gc_;
      rep.used_after = client_live;
      rep.capacity = config_.heap_capacity;
      rep.freed = freed_since_gc_;
      freed_since_gc_ = 0;

      // GC-pressure model: near exhaustion, every consumed byte of
      // headroom costs another collection cycle over the live set.
      if (config_.gc_pressure_cost_ns_per_live_byte > 0.0) {
        const double headroom = std::max<double>(
            static_cast<double>(config_.heap_capacity - client_live),
            static_cast<double>(config_.heap_capacity) / 64.0);
        const double cycles =
            static_cast<double>(alloc_since_gc_) / headroom;
        result_.gc_pressure_time += static_cast<SimDuration>(
            cycles * static_cast<double>(client_live) *
            config_.gc_pressure_cost_ns_per_live_byte);
      }
      alloc_since_gc_ = 0;

      monitor_->on_gc(kEmulatedClient, rep);
      resource_->feed(rep);

      if (config_.trigger_mode == TriggerMode::memory_gc &&
          resource_->triggered() &&
          result_.offloads.size() < config_.max_offloads) {
        resource_->consume_trigger();
        try_offload(e.t, result_);
      }
      break;
    }
  }

  if (config_.trigger_mode == TriggerMode::trace_fraction &&
      !fraction_evaluated_ && event_ix_ >= eval_index_ &&
      result_.offloads.size() < config_.max_offloads) {
    fraction_evaluated_ = true;
    try_offload(e.t, result_);
  }
}

bool Emulator::step() {
  if (done()) return false;
  replay_event(trace_->events[event_ix_]);
  event_ix_ += 1;
  return true;
}

std::size_t Emulator::step(std::size_t n) {
  std::size_t taken = 0;
  while (taken < n && step()) taken += 1;
  return taken;
}

EmulationResult Emulator::finish() {
  // Unattributed trace time (driver-level work, GC outside frames) stays on
  // the client; attributed self-time is re-scaled by placement.
  result_.emulated_time = result_.base_time - compute_raw_ + compute_scaled_ +
                          result_.comm_time + result_.migration_time +
                          result_.gc_pressure_time + result_.queue_time;
  trace_ = nullptr;
  return std::move(result_);
}

EmulationResult Emulator::run(const Trace& trace) {
  begin(trace);
  while (step()) {
  }
  return finish();
}

}  // namespace aide::emul
