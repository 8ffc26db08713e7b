// The four workloads. Each is a closed loop over a fixed list of units
// that the seed generates in full; the driver starts the next unit when the
// previous one completes.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <functional>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "apps/apps.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "emul/emulator.hpp"
#include "emul/fleet.hpp"
#include "platform/platform.hpp"
#include "platform/surrogate_pool.hpp"
#include "shims.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace aide;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t mix_double(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return mix(h, bits);
}

std::uint64_t UnitResult::digest() const {
  std::uint64_t h = mix(0xBE7C4ULL, checksum);
  h = mix_double(h, virtual_s);
  h = mix_double(h, link_kb);
  for (const auto& [k, v] : counters.virt) {
    for (const char c : k) h = mix(h, static_cast<unsigned char>(c));
    h = mix_double(h, v);
  }
  for (const SimDuration d : op_latencies) {
    h = mix(h, static_cast<std::uint64_t>(d));
  }
  return h;
}

namespace {

constexpr NodeId kClientNode{1};

// One independent stream per purpose, so adding a draw to one workload never
// shifts another's inputs.
Rng stream(std::uint64_t seed, std::uint64_t purpose) {
  return Rng(seed * 0x9E3779B97F4A7C15ULL + purpose);
}

std::shared_ptr<vm::ClassRegistry> registry_for(const apps::AppInfo& app,
                                                SpanRecorder* rec) {
  auto reg = std::make_shared<vm::ClassRegistry>();
  Scope s(rec, Layer::apps);
  app.register_classes(*reg);
  return reg;
}

// The application alone on one generous VM: the transparency reference.
std::uint64_t local_checksum(const apps::AppInfo& app,
                             std::shared_ptr<const vm::ClassRegistry> reg,
                             const apps::AppParams& params) {
  SimClock clock;
  vm::VmConfig cfg;
  cfg.name = "reference";
  cfg.heap_capacity = std::int64_t{64} << 20;
  vm::Vm v(cfg, std::move(reg), clock);
  return app.run(v, params);
}

void add_vm(Counters& c, const vm::VmStats& s) {
  c.add("vm.invocations", static_cast<double>(s.invocations));
  c.add("vm.field_accesses", static_cast<double>(s.field_accesses));
  c.add("vm.allocations", static_cast<double>(s.allocations));
  c.add("vm.gc_cycles", static_cast<double>(s.gc_cycles));
  c.add("vm.remote_ops",
        static_cast<double>(s.remote_invocations + s.remote_field_accesses));
}

void add_endpoint(Counters& c, const rpc::EndpointStats& s) {
  c.add("rpc.frames", static_cast<double>(s.rpcs_sent));
  c.add("rpc.ops", static_cast<double>(s.ops_sent));
  c.add("rpc.bytes", static_cast<double>(s.bytes_sent));
  c.add("rpc.readahead_hits", static_cast<double>(s.readahead_hits));
  c.add("rpc.objects_migrated", static_cast<double>(s.objects_migrated_out));
  c.add("rpc.bytes_migrated", static_cast<double>(s.bytes_migrated_out));
  c.add("rpc.retries", static_cast<double>(s.retries));
  c.add("rpc.timeouts", static_cast<double>(s.timeouts));
  c.add("rpc.aborted", static_cast<double>(s.aborted_rpcs));
  c.add("rpc.frames_rejected",
        static_cast<double>(s.corrupt_frames_rejected +
                            s.stale_frames_fenced +
                            s.duplicate_frames_dropped));
}

void add_link(Counters& c, const netsim::LinkStats& s) {
  c.add("netsim.busy_virtual_s", sim_to_seconds(s.busy_time));
  c.add("netsim.messages", static_cast<double>(s.messages));
  c.add("netsim.attempts",
        static_cast<double>(s.messages + s.messages_dropped +
                            s.link_down_failures));
}

void add_decision(Counters& c, const partition::PartitionDecision& d,
                  std::int64_t heap_used_before) {
  c.add("partition.decisions", 1);
  c.add("partition.candidates_total", static_cast<double>(d.candidates_total));
  c.add("partition.candidates_feasible",
        static_cast<double>(d.candidates_feasible));
  c.add("partition.offload_bytes",
        d.offload ? static_cast<double>(d.selected.offload_mem_bytes) : 0.0);
  c.add("partition.heap_before", static_cast<double>(heap_used_before));
  c.add("graph.mincut_nodes", static_cast<double>(d.mincut_nodes));
  c.add("graph.mincut_edges", static_cast<double>(d.mincut_edges));
  c.add_host("partition.decide_ms", d.compute_seconds * 1e3);
}

void add_monitor(Counters& c, const monitor::ExecutionMonitor& m) {
  const monitor::MonitorCounters& k = m.counters();
  c.add("monitor.events",
        static_cast<double>(k.interaction_events() + k.class_events));
  c.add("monitor.graph_nodes", static_cast<double>(m.graph().node_count()));
  c.add("monitor.graph_edges", static_cast<double>(m.graph().edge_count()));
}

// Everything a finished live Platform run exposes publicly.
void collect_platform(platform::Platform& p, const std::string& app,
                      UnitResult& r) {
  Counters& c = r.counters;
  r.virtual_s = sim_to_seconds(p.elapsed());
  r.link_kb = static_cast<double>(p.link().stats().bytes) / 1024.0;
  c.add("apps." + app + ".virtual_s", r.virtual_s);
  c.add("apps." + app + ".units", 1);
  add_vm(c, p.client().stats());
  add_vm(c, p.surrogate().stats());
  add_monitor(c, p.exec_monitor());
  add_endpoint(c, p.client_endpoint().stats());
  add_endpoint(c, p.surrogate_endpoint().stats());
  add_link(c, p.link().stats());
  for (const platform::OffloadReport& o : p.offloads()) {
    add_decision(c, o.decision, o.client_heap_used_before);
    c.add("platform.migration_virtual_s", sim_to_seconds(o.completed_at - o.at));
  }
  for (const platform::DisconnectReport& d : p.disconnects()) {
    c.add("platform.disconnects", 1);
    c.add("platform.reconciles", static_cast<double>(d.reconciles));
    c.add("platform.entries_replayed", static_cast<double>(d.entries_replayed));
    c.add("platform.hoarded_kb", static_cast<double>(d.bytes_hoarded) / 1024.0);
    const SimTime until = d.resumed ? d.resumed_at : p.elapsed();
    c.add("platform.disconnected_virtual_s", sim_to_seconds(until - d.at));
  }
}

// Runs `app` on a freshly built Platform, optionally traced, and checks the
// checksum. The hooks `make_hooks` returns are registered after the
// platform's own (and after the shims that replace them).
UnitResult run_live(const apps::AppInfo& app,
                    std::shared_ptr<const vm::ClassRegistry> reg,
                    const platform::PlatformConfig& cfg,
                    const apps::AppParams& params, std::uint64_t reference,
                    SpanRecorder* rec,
                    const std::function<vm::VmHooks*(platform::Platform&)>&
                        make_hooks = {}) {
  UnitResult r;
  r.reference = reference;
  std::optional<platform::Platform> p;
  {
    Scope s(rec, Layer::analysis);
    p.emplace(std::move(reg), cfg);
  }
  std::optional<PlatformShims> shims;
  if (rec != nullptr) shims.emplace(*p, *rec, r.rpc_latencies);
  vm::VmHooks* extra = make_hooks ? make_hooks(*p) : nullptr;
  if (extra != nullptr) p->client().add_hooks(extra);
  try {
    Scope s(rec, Layer::vm);
    r.checksum = app.run(p->client(), params);
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = std::string("threw: ") + e.what();
  }
  if (extra != nullptr) p->client().remove_hooks(extra);
  if (shims.has_value()) {
    r.shim_ops = shims->ops_seen();
    shims.reset();
  }
  collect_platform(*p, app.name, r);
  if (r.ok && r.checksum != r.reference) {
    r.ok = false;
    r.error = "checksum differs from reference";
  }
  return r;
}

// --- offload-paper -----------------------------------------------------------
//
// JavaNote, Dia and Biomer on the paper's setup (6 MB client heap, default
// trigger, WaveLAN, auto-offload). Each app's scale is drawn over 0.9-1.1x
// paper size by stratified sampling: the band is cut into kStrata equal
// strata and each unit draws one scale uniformly inside its stratum, so every
// pass covers the whole band whatever the seed. That includes JavaNote's
// offload threshold near 0.925x and Biomer's cliff near 1.0275x, where its
// virtual time jumps about 7x: the cliff sits near the bottom of the sixth
// stratum (1.025-1.05x), so a pass holds three cliff units on about 90% of
// seeds and two on the rest.
class OffloadPaper final : public Workload {
 public:
  explicit OffloadPaper(const Options& opt) {
    const std::size_t strata = opt.reduced ? 2 : kStrata;
    Rng rng = stream(opt.seed, 1);
    for (std::size_t i = 0; i < strata; ++i) {
      for (const char* name : {"JavaNote", "Dia", "Biomer"}) {
        Unit u;
        u.app = &apps::app_by_name(name);
        u.params.scale = 0.9 + 0.2 * (static_cast<double>(i) +
                                      rng.next_double()) /
                                   static_cast<double>(strata);
        units_.push_back(u);
      }
    }
    inject_ = opt.inject_mismatch;
  }

  void setup(SpanRecorder* rec) override {
    std::unordered_map<std::string, std::shared_ptr<vm::ClassRegistry>> regs;
    for (Unit& u : units_) {
      auto& reg = regs[u.app->name];
      if (!reg) reg = registry_for(*u.app, rec);
      u.registry = reg;
      u.reference = local_checksum(*u.app, reg, u.params);
    }
    if (inject_) units_.front().reference ^= 1;
  }

  std::size_t units() const override { return units_.size(); }
  std::string unit_name(std::size_t i) const override {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s@%.4f", units_[i].app->name.c_str(),
                  units_[i].params.scale);
    return buf;
  }
  std::size_t warmup_units() const override { return 3; }
  int setup_reps() const override { return 5; }

  UnitResult run_unit(std::size_t i, SpanRecorder* rec) override {
    const Unit& u = units_[i];
    return run_live(*u.app, u.registry, platform::PlatformConfig{}, u.params,
                    u.reference, rec);
  }

 private:
  static constexpr std::size_t kStrata = 8;
  struct Unit {
    const apps::AppInfo* app = nullptr;
    std::shared_ptr<vm::ClassRegistry> registry;
    apps::AppParams params;
    std::uint64_t reference = 0;
  };
  std::vector<Unit> units_;
  bool inject_ = false;
};

// --- flaky-link --------------------------------------------------------------

// bench_disconnect's reduced inputs.
apps::AppParams reduced_params(std::uint64_t voxel_seed) {
  apps::AppParams p;
  p.seed = voxel_seed;
  p.doc_bytes = 48 * 1024;
  p.edits = 16;
  p.scrolls = 20;
  p.image_size = 64;
  p.layers = 3;
  p.filter_passes = 3;
  p.atoms = 80;
  p.iterations = 4;
  p.field_size = 49;
  p.frames = 4;
  p.columns = 32;
  p.trace_w = 16;
  p.trace_h = 12;
  p.spheres = 6;
  return p;
}

platform::PlatformConfig disconnect_config(const netsim::FaultPlan& plan) {
  platform::PlatformConfig cfg;
  cfg.client_heap = 64 << 20;
  cfg.surrogate_heap = 64 << 20;
  cfg.auto_offload = false;
  cfg.client_gc_alloc_count_threshold = 4;
  cfg.client_gc_alloc_bytes_divisor = 512;
  cfg.fault_plan = plan;
  cfg.disconnect.enabled = true;
  cfg.disconnect.probe_interval = sim_ms(20);
  cfg.heartbeat.idle_after = sim_ms(100);
  return cfg;
}

// Forces one offload at the client's second GC, as bench_disconnect does.
class ForcedOffload final : public vm::VmHooks {
 public:
  explicit ForcedOffload(platform::Platform& p) : p_(p) {}
  void on_gc(NodeId node, const vm::GcReport&) override {
    if (node != kClientNode) return;
    if (++cycles_ < 2) return;
    if (p_.offloaded() || p_.surrogate_dead()) return;
    p_.offload_now(std::int64_t{1});
  }

 private:
  platform::Platform& p_;
  int cycles_ = 0;
};

// All five apps on the live Platform under a seeded FaultPlan: random
// message and reply drops, small corrupt/duplicate/reorder probabilities and
// one mid-run outage. Outage lengths are log-uniform over 0.25-4 s, drawn
// one per stratum of kStrata equal log-width strata per app. Outcomes have
// sharp edges in outage length: JavaNote takes about 2.5x longer and sends
// about 50x the bytes after outages of about 0.2-0.56 s, and the upper edge
// moves with the drop pattern. A band starting at 0.5 s would cut through
// that regime, so whether a pass held one or two such units would flip with
// the seed; from 0.25 s it is about 29% of JavaNote's units in every pass.
class FlakyLink final : public Workload {
 public:
  explicit FlakyLink(const Options& opt) {
    const std::size_t strata = opt.reduced ? 1 : kStrata;
    Rng rng = stream(opt.seed, 2);
    params_ = reduced_params(rng.next_u64());
    for (std::size_t i = 0; i < strata; ++i) {
      for (const apps::AppInfo& app : apps::all_apps()) {
        Unit u;
        u.app = &app;
        const double outage_s =
            0.25 * std::pow(16.0, (static_cast<double>(i) + rng.next_double()) /
                                      static_cast<double>(strata));
        u.outage = static_cast<SimDuration>(outage_s * 1e9);
        u.drop_seed = rng.next_u64();
        u.chaos_seed = rng.next_u64();
        units_.push_back(u);
      }
    }
    inject_ = opt.inject_mismatch;
  }

  void setup(SpanRecorder* rec) override {
    std::unordered_map<std::string, Base> bases;
    for (Unit& u : units_) {
      auto it = bases.find(u.app->name);
      if (it == bases.end()) {
        // The fault-free run on the same configuration: the reference
        // checksum, and where to anchor the outage.
        Base b;
        b.registry = registry_for(*u.app, rec);
        platform::Platform p(b.registry, disconnect_config({}));
        ForcedOffload forced(p);
        p.client().add_hooks(&forced);
        b.checksum = u.app->run(p.client(), params_);
        p.client().remove_hooks(&forced);
        b.end = p.elapsed();
        b.offload_done =
            p.offloads().empty() ? 0 : p.offloads().front().completed_at;
        it = bases.emplace(u.app->name, b).first;
      }
      const Base& b = it->second;
      u.registry = b.registry;
      u.reference = b.checksum;
      u.outage_start =
          b.offload_done + std::max<SimDuration>(1, (b.end - b.offload_done) / 4);
    }
    if (inject_) units_.front().reference ^= 1;
  }

  std::size_t units() const override { return units_.size(); }
  std::string unit_name(std::size_t i) const override {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s/outage=%.3fs",
                  units_[i].app->name.c_str(),
                  sim_to_seconds(units_[i].outage));
    return buf;
  }
  std::size_t warmup_units() const override { return 5; }
  int setup_reps() const override { return 40; }

  UnitResult run_unit(std::size_t i, SpanRecorder* rec) override {
    const Unit& u = units_[i];
    netsim::FaultPlan plan;
    plan.outages.push_back({u.outage_start, u.outage_start + u.outage});
    plan.drop_probability = 0.01;
    plan.reply_drop_probability = 0.01;
    plan.drop_seed = u.drop_seed;
    plan.corrupt_probability = 0.002;
    plan.duplicate_probability = 0.002;
    plan.reorder_probability = 0.002;
    plan.chaos_seed = u.chaos_seed;
    std::optional<ForcedOffload> forced;
    return run_live(*u.app, u.registry, disconnect_config(plan), params_,
                    u.reference, rec, [&](platform::Platform& p) {
                      return &forced.emplace(p);
                    });
  }

 private:
  static constexpr std::size_t kStrata = 36;
  struct Base {
    std::shared_ptr<vm::ClassRegistry> registry;
    std::uint64_t checksum = 0;
    SimTime end = 0;
    SimTime offload_done = 0;
  };
  struct Unit {
    const apps::AppInfo* app = nullptr;
    std::shared_ptr<vm::ClassRegistry> registry;
    std::uint64_t reference = 0;
    SimTime outage_start = 0;
    SimDuration outage = 0;
    std::uint64_t drop_seed = 0;
    std::uint64_t chaos_seed = 0;
  };
  apps::AppParams params_;
  std::vector<Unit> units_;
  bool inject_ = false;
};

// --- replay ------------------------------------------------------------------

struct Recorded {
  bench::RecordedApp app;        // trace, registry and recorded checksum
  std::uint64_t reference = 0;   // the same app, unrecorded
  std::uint64_t invokes = 0;     // invoke events in the trace
  std::uint64_t accesses = 0;    // access events in the trace
};

// Records a trace the way the figure harnesses do, plus the local-only
// reference run and the event counts a replay must conserve.
Recorded record(const apps::AppInfo& app, const apps::AppParams& params,
                SpanRecorder* rec, Counters& setup_counters) {
  Recorded out;
  {
    Scope s(rec, Layer::record);
    out.app = bench::record_app(app.name, params);
  }
  setup_counters.add_host("emul.record_s", out.app.record_wall_seconds);
  out.reference = local_checksum(app, registry_for(app, rec), params);
  for (const emul::TraceEvent& e : out.app.trace.events) {
    if (e.type == emul::TraceEventType::invoke) out.invokes += 1;
    if (e.type == emul::TraceEventType::access) out.accesses += 1;
  }
  return out;
}

void add_emulation(Counters& c, const emul::EmulationResult& r,
                   std::size_t events) {
  c.add("emul.events", static_cast<double>(events));
  c.add("emul.comm_virtual_s", sim_to_seconds(r.comm_time));
  c.add("emul.migration_virtual_s", sim_to_seconds(r.migration_time));
  c.add("emul.gc_pressure_virtual_s", sim_to_seconds(r.gc_pressure_time));
  c.add("emul.queue_virtual_s", sim_to_seconds(r.queue_time));
  c.add("emul.emulated_virtual_s", sim_to_seconds(r.emulated_time));
  for (const emul::OffloadSnapshot& o : r.offloads) {
    add_decision(c, o.decision, r.peak_client_live);
  }
  for (const partition::PartitionDecision& d : r.declined) {
    add_decision(c, d, r.peak_client_live);
  }
}

double emulated_link_kb(const emul::EmulationResult& r) {
  std::uint64_t bytes = r.remote_bytes;
  for (const emul::OffloadSnapshot& o : r.offloads) bytes += o.migrated_bytes;
  return static_cast<double>(bytes) / 1024.0;
}

// Paper-size traces of all five apps, each replayed through the emulator
// under the Fig-6 initial memory policy at 6 MB and under the Fig-10 CPU
// objective with the Native and Array enhancements. Each trace's scale is
// drawn from 0.99-1.0x paper size, so the seed moves the replayed inputs.
// The band stops at paper size: just above it the emulator's Fig-6 JavaNote
// placement changes and moves twice the bytes, which would make each pass's
// total flip with the seed. offload-paper covers sizes above paper size.
class Replay final : public Workload {
 public:
  explicit Replay(const Options& opt) : opt_(opt) {
    Rng rng = stream(opt.seed, 3);
    const std::uint64_t voxel_seed = rng.next_u64();
    for (std::size_t i = 0; i < apps::all_apps().size(); ++i) {
      apps::AppParams p;
      p.seed = voxel_seed;
      p.scale = 0.99 + 0.01 * rng.next_double();
      params_.push_back(p);
    }
  }

  void setup(SpanRecorder* rec) override {
    recorded_.clear();
    setup_counters_ = {};
    for (std::size_t i = 0; i < params_.size(); ++i) {
      recorded_.push_back(
          record(apps::all_apps()[i], params_[i], rec, setup_counters_));
    }
    if (opt_.inject_mismatch) recorded_.front().reference ^= 1;
  }

  std::size_t units() const override { return recorded_.size() * 2; }
  std::string unit_name(std::size_t i) const override {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s@%.4f/%s",
                  apps::all_apps()[i / 2].name.c_str(), params_[i / 2].scale,
                  i % 2 == 0 ? "fig6" : "fig10");
    return buf;
  }
  std::size_t warmup_units() const override { return 5; }
  int setup_reps() const override { return 5; }

  UnitResult run_unit(std::size_t i, SpanRecorder* rec) override {
    const Recorded& t = recorded_[i / 2];
    const std::string& name = apps::all_apps()[i / 2].name;
    UnitResult r;
    r.checksum = t.app.checksum;
    r.reference = t.reference;
    emul::EmulationResult res;
    try {
      emul::Emulator emu(t.app.registry, i % 2 == 0 ? fig6() : fig10());
      Scope s(rec, Layer::emul);
      res = emu.run(t.app.trace);
      add_monitor(r.counters, emu.last_monitor());
    } catch (const std::exception& e) {
      r.ok = false;
      r.error = std::string("threw: ") + e.what();
    }
    r.virtual_s = sim_to_seconds(res.emulated_time);
    r.link_kb = emulated_link_kb(res);
    add_emulation(r.counters, res, t.app.trace.events.size());
    r.counters.add("apps." + name + ".virtual_s", r.virtual_s);
    r.counters.add("apps." + name + ".units", 1);
    if (r.ok && r.checksum != r.reference) {
      r.ok = false;
      r.error = "recorded checksum differs from reference";
    }
    // The replay must see every recorded interaction exactly once.
    if (r.ok && (res.total_invocations != t.invokes ||
                 res.total_accesses != t.accesses)) {
      r.ok = false;
      r.error = "replay lost or repeated trace events";
    }
    return r;
  }

  Counters setup_counters() const override { return setup_counters_; }

 private:
  static emul::EmulatorConfig fig6() {
    emul::EmulatorConfig cfg;
    cfg.trigger_mode = emul::TriggerMode::memory_gc;
    cfg.trigger.low_free_threshold = 0.05;
    cfg.trigger.consecutive_reports = 3;
    cfg.min_free_fraction = 0.20;
    cfg.heap_capacity = std::int64_t{6} << 20;
    cfg.objective = partition::Objective::free_memory;
    cfg.surrogate_speedup = 1.0;
    cfg.gc_pressure_cost_ns_per_live_byte = 100.0;
    return cfg;
  }
  static emul::EmulatorConfig fig10() {
    emul::EmulatorConfig cfg;
    cfg.trigger_mode = emul::TriggerMode::trace_fraction;
    cfg.eval_at_fraction = 0.25;
    cfg.objective = partition::Objective::speed_up;
    cfg.surrogate_speedup = 3.5;
    cfg.heap_capacity = std::int64_t{64} << 20;
    cfg.stateless_natives_local = true;
    cfg.arrays_as_objects = true;
    return cfg;
  }

  Options opt_;
  std::vector<apps::AppParams> params_;
  std::vector<Recorded> recorded_;
  Counters setup_counters_;
};

// --- fleet -------------------------------------------------------------------

constexpr std::size_t kObjectsPerSession = 8;
constexpr std::uint32_t kWritesPerTurn = 6;

// One session's remote-access script: each turn writes kWritesPerTurn fields
// of its offloaded records, reads every one of them back and flushes. Each
// read must return the value written in the same turn, so the check holds
// across a surrogate death that hands the session a fresh, empty pair.
struct Script {
  std::vector<vm::ObjectRef> objs;
  Rng rng{1};
  std::unique_ptr<TracedPeer> client_peer;
  std::unique_ptr<TracedPeer> surrogate_peer;
};

// bench_fleet's remote-access script on a live k=4 SurrogatePool with one
// member killed mid-run, followed by a pooled FleetEmulator run over N
// recorded Tracer traces.
class Fleet final : public Workload {
 public:
  explicit Fleet(const Options& opt) : opt_(opt) {
    sessions_ = opt.reduced ? 4 : 16;
    Rng rng = stream(opt.seed, 4);
    for (std::size_t u = 0; u < (opt.reduced ? 1 : kUnits); ++u) {
      Unit x;
      x.script_seed = rng.next_u64();
      x.kill_round = kRounds / 4 + rng.next_below(kRounds / 2);
      units_.push_back(x);
    }
    for (std::size_t i = 0; i < sessions_; ++i) {
      trace_scales_.push_back(0.9 + 0.2 * rng.next_double());
    }
  }

  void setup(SpanRecorder* rec) override {
    rec_registry_ = std::make_shared<vm::ClassRegistry>();
    {
      Scope s(rec, Layer::apps);
      vm::ClassBuilder cb("Rec");
      for (int f = 0; f < 8; ++f) cb.field("f" + std::to_string(f));
      rec_registry_->register_class(cb.build());
    }
    traces_.clear();
    setup_counters_ = {};
    const apps::AppInfo& tracer = apps::app_by_name("Tracer");
    for (const double scale : trace_scales_) {
      apps::AppParams p;
      p.trace_w = 12;
      p.trace_h = 8;
      p.spheres = 4;
      p.scale = scale;
      traces_.push_back(record(tracer, p, rec, setup_counters_));
    }
  }

  std::size_t units() const override { return units_.size(); }
  std::string unit_name(std::size_t i) const override {
    return "pool#" + std::to_string(i) + "/kill@" +
           std::to_string(units_[i].kill_round);
  }
  std::size_t warmup_units() const override { return 1; }
  int setup_reps() const override { return 200; }

  UnitResult run_unit(std::size_t i, SpanRecorder* rec) override {
    UnitResult r;
    try {
      run_pool(units_[i], rec, r);
      run_emulated(rec, r);
    } catch (const std::exception& e) {
      r.ok = false;
      r.error = std::string("threw: ") + e.what();
    }
    // Every read of every session in every round must verify.
    r.reference = static_cast<std::uint64_t>(sessions_) * kRounds *
                  kWritesPerTurn;
    if (opt_.inject_mismatch && i == 0) r.reference ^= 1;
    if (r.ok && r.checksum != r.reference) {
      r.ok = false;
      r.error = "verified reads differ from reads issued";
    }
    return r;
  }

  Counters setup_counters() const override { return setup_counters_; }

 private:
  static constexpr std::size_t kUnits = 4;
  static constexpr std::size_t kRounds = 32;
  static constexpr std::size_t kMembers = 4;

  struct Unit {
    std::uint64_t script_seed = 0;
    std::size_t kill_round = 0;
  };

  void run_pool(const Unit& unit, SpanRecorder* rec, UnitResult& r) {
    platform::PoolConfig pc;
    pc.members.resize(kMembers);
    for (std::size_t m = 0; m < kMembers; ++m) {
      platform::ServerConfig& s = pc.members[m];
      s.max_sessions = sessions_;
      // The Rec registry carries no method IR for the startup gates.
      s.static_analysis = false;
      s.effect_verify = false;
      s.surrogate_speedup = 2.0 + 0.5 * static_cast<double>(m);
    }
    std::optional<platform::SurrogatePool> pool;
    {
      Scope s(rec, Layer::analysis);
      pool.emplace(rec_registry_, pc);
    }
    std::unordered_map<std::uint32_t, Script> scripts;
    std::uint64_t verified = 0;
    std::uint64_t lost = 0;
    SimClock& clock = pool->clock();

    const auto start = [&](platform::Session& s) -> Script& {
      Script& sc = scripts[s.id().value()];
      sc.rng = Rng(unit.script_seed + 31 * s.driver_state +
                   static_cast<std::uint64_t>(s.id().value()));
      std::vector<ObjectId> ids;
      for (std::size_t o = 0; o < kObjectsPerSession; ++o) {
        const vm::ObjectRef obj = s.client().new_object("Rec");
        s.client().add_root(obj);
        sc.objs.push_back(obj);
        ids.push_back(obj.id);
      }
      if (rec != nullptr) {
        sc.client_peer = std::make_unique<TracedPeer>(
            s.client_endpoint(), *rec, clock, r.rpc_latencies);
        sc.surrogate_peer = std::make_unique<TracedPeer>(
            s.surrogate_endpoint(), *rec, clock, r.rpc_latencies);
        s.client().set_peer(sc.client_peer.get());
        s.surrogate().set_peer(sc.surrogate_peer.get());
      }
      if (!s.offload(ids)) lost += 1;
      return sc;
    };

    for (std::size_t n = 0; n < sessions_; ++n) {
      platform::Session* s = pool->open_session();
      if (s == nullptr) {
        lost += 1;
        continue;
      }
      Scope v(rec, Layer::vm);
      start(*s);
    }

    const platform::SurrogateServer::TurnFn turn =
        [&](platform::Session& s) {
          Scope v(rec, Layer::vm);
          auto it = scripts.find(s.id().value());
          Script& sc = it != scripts.end() ? it->second : start(s);
          vm::Vm& client = s.client();
          vm::ObjectRef objs[kWritesPerTurn];
          FieldId fields[kWritesPerTurn];
          std::int64_t values[kWritesPerTurn];
          SimTime issued[2 * kWritesPerTurn];
          std::uint32_t deferred = 0;
          const auto timed = [&](auto&& op) {
            const SimTime t0 = clock.now();
            op();
            s.charge_ops(1);
            if (clock.now() > t0) {
              r.op_latencies.push_back(clock.now() - t0);
            } else {
              issued[deferred++] = t0;
            }
          };
          for (std::uint32_t k = 0; k < kWritesPerTurn; ++k) {
            objs[k] = sc.objs[sc.rng.next_below(kObjectsPerSession)];
            fields[k] = FieldId{static_cast<std::uint32_t>(sc.rng.next_below(8))};
            values[k] = static_cast<std::int64_t>(s.driver_state * 131 + k);
            timed([&] { client.put_field(objs[k], fields[k], vm::Value{values[k]}); });
          }
          for (std::uint32_t k = 0; k < kWritesPerTurn; ++k) {
            // A later write in this turn may hit the same slot.
            std::int64_t expect = values[k];
            for (std::uint32_t j = k + 1; j < kWritesPerTurn; ++j) {
              if (objs[j].id == objs[k].id && fields[j] == fields[k]) {
                expect = values[j];
              }
            }
            vm::Value got;
            timed([&] { got = client.get_field(objs[k], fields[k]); });
            if (got.is_int() && got.as_int() == expect) verified += 1;
          }
          s.client_endpoint().flush_pending();
          for (std::uint32_t k = 0; k < deferred; ++k) {
            r.op_latencies.push_back(clock.now() - issued[k]);
          }
          s.driver_state += 1;
          return platform::TurnOutcome::yielded;
        };

    rpc::EndpointStats retired;
    netsim::LinkStats retired_link;
    vm::VmStats retired_vm;
    for (std::size_t round = 0; round < kRounds; ++round) {
      if (round == unit.kill_round) {
        // The busiest member dies; its sessions' counters leave with it.
        std::size_t victim = 0;
        for (std::size_t m = 1; m < pool->size(); ++m) {
          if (pool->member(m).session_count() >
              pool->member(victim).session_count()) {
            victim = m;
          }
        }
        for (const auto& [id, sc] : scripts) {
          platform::Session* s = pool->find_session(SessionId{id});
          if (s == nullptr || pool->member_of(SessionId{id}) != victim) {
            continue;
          }
          retired += platform::SurrogateServer::session_stats(*s);
          collect_session_extras(*s, retired_link, retired_vm);
        }
        for (const platform::Replacement& rep : pool->kill_surrogate(victim)) {
          if (rep.to == pool->size()) lost += 1;
        }
      }
      Scope s(rec, Layer::round);
      pool->run_rounds(1, turn);
    }

    Counters& c = r.counters;
    rpc::EndpointStats agg = retired;
    netsim::LinkStats link = retired_link;
    vm::VmStats vms = retired_vm;
    double lo = 0.0, hi = 0.0;
    bool first = true;
    for (const auto& [id, sc] : scripts) {
      platform::Session* s = pool->find_session(SessionId{id});
      if (s == nullptr) continue;
      agg += platform::SurrogateServer::session_stats(*s);
      collect_session_extras(*s, link, vms);
      const double svc = sim_to_seconds(s->service_time());
      lo = first || svc < lo ? svc : lo;
      hi = first || svc > hi ? svc : hi;
      first = false;
    }
    add_endpoint(c, agg);
    add_link(c, link);
    add_vm(c, vms);
    const platform::ServerStats ss = pool->aggregate_server_stats();
    c.add("platform.turns", static_cast<double>(ss.turns));
    c.add("platform.placements", static_cast<double>(pool->stats().placements));
    c.add("platform.replacements",
          static_cast<double>(pool->stats().replacements));
    c.add("platform.admission_rejections",
          static_cast<double>(pool->stats().admission_rejections +
                              ss.admission_rejections));
    c.add("platform.fairness_spread", lo > 0 ? hi / lo : 1.0);
    c.add("fleet.pool_virtual_s", sim_to_seconds(clock.now()));
    r.virtual_s = sim_to_seconds(clock.now());
    r.link_kb = static_cast<double>(link.bytes) / 1024.0;
    r.checksum = verified;
    for (const auto& [id, sc] : scripts) {
      if (sc.client_peer) r.shim_ops += sc.client_peer->ops();
      if (sc.surrogate_peer) r.shim_ops += sc.surrogate_peer->ops();
    }
    if (lost != 0) {
      r.ok = false;
      r.error = std::to_string(lost) + " session(s) refused or lost";
    }
  }

  static void collect_session_extras(platform::Session& s,
                                     netsim::LinkStats& link,
                                     vm::VmStats& vms) {
    const netsim::LinkStats& l = s.link().stats();
    link.messages += l.messages;
    link.bytes += l.bytes;
    link.busy_time += l.busy_time;
    link.messages_dropped += l.messages_dropped;
    link.link_down_failures += l.link_down_failures;
    for (const vm::VmStats* v : {&s.client().stats(), &s.surrogate().stats()}) {
      vms.invocations += v->invocations;
      vms.field_accesses += v->field_accesses;
      vms.allocations += v->allocations;
      vms.gc_cycles += v->gc_cycles;
      vms.remote_invocations += v->remote_invocations;
      vms.remote_field_accesses += v->remote_field_accesses;
    }
  }

  void run_emulated(SpanRecorder* rec, UnitResult& r) {
    emul::FleetConfig cfg;
    cfg.session.trigger_mode = emul::TriggerMode::trace_fraction;
    cfg.session.eval_at_fraction = 0.25;
    cfg.session.objective = partition::Objective::speed_up;
    cfg.session.surrogate_speedup = 3.5;
    cfg.session.heap_capacity = std::int64_t{64} << 20;
    cfg.session.stateless_natives_local = true;
    cfg.session.arrays_as_objects = true;
    cfg.pool_size = kMembers;
    emul::FleetEmulator fleet(traces_.front().app.registry, cfg);
    std::vector<const emul::Trace*> ptrs;
    std::size_t events = 0;
    for (const Recorded& t : traces_) {
      ptrs.push_back(&t.app.trace);
      events += t.app.trace.events.size();
    }
    emul::FleetResult fr;
    {
      Scope s(rec, Layer::emul);
      fr = fleet.run(ptrs);
    }
    Counters& c = r.counters;
    c.add("emul.events", static_cast<double>(events));
    double link_kb = 0.0;
    for (const emul::EmulationResult& e : fr.sessions) {
      add_emulation(c, e, 0);
      c.add("apps.Tracer.virtual_s", sim_to_seconds(e.emulated_time));
      c.add("apps.Tracer.units", 1);
      link_kb += emulated_link_kb(e);
    }
    c.add("emul.makespan_virtual_s", sim_to_seconds(fr.makespan));
    r.virtual_s += sim_to_seconds(fr.makespan);
    r.link_kb += link_kb;
    r.op_latencies.insert(r.op_latencies.end(), fr.op_latencies.begin(),
                          fr.op_latencies.end());
    for (const Recorded& t : traces_) {
      if (t.app.checksum != t.reference) {
        r.ok = false;
        r.error = "recorded Tracer checksum differs from reference";
      }
    }
  }

  Options opt_;
  std::size_t sessions_ = 16;
  std::vector<Unit> units_;
  std::vector<double> trace_scales_;
  std::shared_ptr<vm::ClassRegistry> rec_registry_;
  std::vector<Recorded> traces_;
  Counters setup_counters_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Options& opt) {
  if (name == "offload-paper") return std::make_unique<OffloadPaper>(opt);
  if (name == "flaky-link") return std::make_unique<FlakyLink>(opt);
  if (name == "replay") return std::make_unique<Replay>(opt);
  if (name == "fleet") return std::make_unique<Fleet>(opt);
  return nullptr;
}

}  // namespace perfbench
