// perfbench: the end-to-end, per-layer benchmark of the AIDE platform.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--reduced] [--inject-mismatch] [--spans-out <file>]
//
// One run sets the workload up several times (the fastest is setup_s),
// runs its warm-up units untimed, then runs the seed's unit list in a closed
// loop for at least --seconds of host time and at least one full pass. Every
// unit is checked against its reference, and every repetition of a unit must
// reproduce its first run's virtual outputs exactly (the digest).
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs each unit twice,
// untraced and then traced through the span shims, and prints the per-layer
// metrics, the tracing overhead and whether the traced run reproduced the
// untraced virtual outputs. The last stdout line is the result object.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "spans.hpp"
#include "workload.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace perfbench;

namespace {

constexpr std::uint64_t kHeldOutSeed = 20021;  // reserved for checking claims
constexpr std::size_t kSpanCapacity = 200000;
constexpr double kHardCapSeconds = 120.0;

struct Args {
  std::string workload;
  Options opt;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "<offload-paper|flaky-link|replay|fleet> --seed <n> --seconds "
               "<s> --trace <0|1> [--reduced] [--inject-mismatch] "
               "[--spans-out <file>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.opt.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (k == "--seconds") {
      a.seconds = std::atof(value().c_str());
    } else if (k == "--trace") {
      a.trace = value() == "1";
    } else if (k == "--reduced") {
      a.opt.reduced = true;
    } else if (k == "--inject-mismatch") {
      a.opt.inject_mismatch = true;
    } else if (k == "--spans-out") {
      a.spans_out = value();
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (a.workload.empty() || !have_seed) usage("--workload and --seed needed");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

double now_s() { return static_cast<double>(SpanRecorder::now_ns()) * 1e-9; }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string summary_json(const std::vector<double>& v) {
  return "{\"n\": " + std::to_string(v.size()) +
         ", \"q1\": " + num(quantile(v, 0.25)) +
         ", \"median\": " + num(quantile(v, 0.5)) +
         ", \"q3\": " + num(quantile(v, 0.75)) + "}";
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

struct UnitState {
  std::optional<UnitResult> first;  // the first run: the pass's outputs
  std::vector<double> host_s;       // timed untraced runs
  Counters host;                    // host values summed over those runs
  // Traced runs of this unit: spans attributed to them, and rpc shim ops.
  std::uint64_t traced_runs = 0;
  SpanRecorder::Totals spans;
  std::uint64_t shim_ops = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  std::unique_ptr<Workload> w = make_workload(a.workload, a.opt);
  if (w == nullptr) usage(("unknown workload " + a.workload).c_str());

  std::optional<SpanRecorder> rec;
  if (a.trace) rec.emplace(kSpanCapacity);
  SpanRecorder* tr = a.trace ? &*rec : nullptr;

  // --- setup ------------------------------------------------------------------
  std::vector<double> setup_samples;
  const int setup_reps = a.trace ? 1 : w->setup_reps();
  for (int r = 0; r < setup_reps; ++r) {
    if (r > 0) {
      w.reset();  // one set of traces in memory at a time
      w = make_workload(a.workload, a.opt);
    }
    const double t0 = now_s();
    w->setup(tr);
    setup_samples.push_back(now_s() - t0);
  }
  const std::size_t n = w->units();
  const Counters setup_counters = w->setup_counters();

  // --- runs -------------------------------------------------------------------
  std::vector<UnitState> state(n);
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  const auto check = [&](std::size_t i, const UnitResult& r) {
    attempted += 1;
    std::string error = r.error;
    if (!state[i].first.has_value()) {
      state[i].first = r;
      state[i].first->rpc_latencies.clear();
    } else if (r.digest() != state[i].first->digest()) {
      error = "virtual outputs differ from the unit's first run";
    }
    if (!r.ok || !error.empty()) {
      failed += 1;
      if (failures.size() < 32) {
        failures.push_back(w->unit_name(i) + ": " + error);
      }
    }
  };

  const std::size_t warm = std::min(w->warmup_units(), n);
  for (std::size_t i = 0; i < warm; ++i) check(i, w->run_unit(i, nullptr));

  std::uint64_t timed_runs = 0;
  // Peak RSS through set-up, warm-up and the first timed pass. Later passes
  // repeat the same units and can raise the peak, and how many of them a run
  // holds follows the host's speed.
  double pass_peak_rss_mb = 0.0;
  // Traced-run bookkeeping.
  double paired_untraced_s = 0.0, paired_traced_s = 0.0;
  bool trace_match = true;
  std::vector<aide::SimDuration> rpc_latencies;
  std::vector<bool> latencies_taken(n, false);

  const double t_start = now_s();
  for (std::size_t k = 0;; ++k) {
    const std::size_t i = k % n;
    const double t0 = now_s();
    const UnitResult r = w->run_unit(i, nullptr);
    const double dt = now_s() - t0;
    check(i, r);
    state[i].host_s.push_back(dt);
    state[i].host.merge(Counters{{}, r.counters.host});
    timed_runs += 1;
    if (tr != nullptr) {
      const SpanRecorder::Totals before = tr->totals();
      const double t1 = now_s();
      const UnitResult traced = w->run_unit(i, tr);
      const double dt_traced = now_s() - t1;
      state[i].spans += tr->totals().minus(before);
      state[i].traced_runs += 1;
      state[i].shim_ops = traced.shim_ops;
      paired_untraced_s += dt;
      paired_traced_s += dt_traced;
      if (traced.digest() != r.digest() || traced.ok != r.ok) {
        trace_match = false;
      }
      if (!latencies_taken[i]) {
        latencies_taken[i] = true;
        rpc_latencies.insert(rpc_latencies.end(),
                             traced.rpc_latencies.begin(),
                             traced.rpc_latencies.end());
      }
    }
    if (k + 1 == n) pass_peak_rss_mb = peak_rss_mb();
    const double elapsed = now_s() - t_start;
    if ((elapsed >= a.seconds && k + 1 >= n) || elapsed >= kHardCapSeconds) {
      break;
    }
  }
  // A pass the hard cap cut short is not a pass: every unit that never ran
  // counts as attempted and failed, so partial totals never pass as whole.
  for (std::size_t i = 0; i < n; ++i) {
    if (state[i].first.has_value()) continue;
    attempted += 1;
    failed += 1;
    if (failures.size() < 32) {
      failures.push_back(w->unit_name(i) + ": not run: hard cap");
    }
  }

  // --- aggregation ------------------------------------------------------------
  // One pass over the unit list: virtual values from each unit's first run,
  // host values and spans from the mean over each unit's timed runs.
  Counters pass;
  Counters host_pass;
  SpanRecorder::Totals spans_pass;
  double shim_ops_pass = 0.0;
  std::vector<double> unit_best_ms;    // fastest timed run of each unit
  std::vector<double> unit_median_ms;  // median timed run of each unit
  double virtual_s = 0.0, link_kb = 0.0;
  std::uint64_t digest = 0x9A55ULL;
  std::vector<aide::SimDuration> op_latencies;
  for (std::size_t i = 0; i < n; ++i) {
    if (!state[i].first.has_value()) continue;
    const UnitResult& f = *state[i].first;
    pass.merge(Counters{f.counters.virt, {}});
    virtual_s += f.virtual_s;
    link_kb += f.link_kb;
    digest = mix(digest, f.digest());
    op_latencies.insert(op_latencies.end(), f.op_latencies.begin(),
                        f.op_latencies.end());
    const double runs = static_cast<double>(state[i].host_s.size());
    for (const auto& [k, v] : state[i].host.host) {
      host_pass.add_host(k, v / runs);
    }
    if (state[i].traced_runs > 0) {
      spans_pass += state[i].spans.scaled(
          1.0 / static_cast<double>(state[i].traced_runs));
      shim_ops_pass += static_cast<double>(state[i].shim_ops);
    }
    if (!state[i].host_s.empty()) {
      unit_best_ms.push_back(
          *std::min_element(state[i].host_s.begin(), state[i].host_s.end()) *
          1e3);
      unit_median_ms.push_back(quantile(state[i].host_s, 0.5) * 1e3);
    }
  }
  std::vector<double> pass_rates;  // units per host second, per full pass
  for (std::size_t p = 0;; ++p) {
    double sum = 0.0;
    bool full = true;
    for (std::size_t i = 0; i < n && full; ++i) {
      full = state[i].host_s.size() > p;
      if (full) sum += state[i].host_s[p];
    }
    if (!full) break;
    pass_rates.push_back(static_cast<double>(n) / sum);
  }
  double best_sum_s = 0.0;
  for (const double ms : unit_best_ms) best_sum_s += ms * 1e-3;

  const auto get = [&](const std::string& k) {
    const auto it = pass.virt.find(k);
    return it == pass.virt.end() ? 0.0 : it->second;
  };
  const auto ratio = [](double num_, double den) {
    return den > 0.0 ? num_ / den : 0.0;
  };
  const auto host_per_pass = [&](const std::string& k) {
    const auto it = host_pass.host.find(k);
    return it == host_pass.host.end() ? 0.0 : it->second;
  };
  const double failed_frac =
      ratio(static_cast<double>(failed), static_cast<double>(attempted));

  std::vector<Metric> metrics;
  if (!a.trace) {
    metrics = {
        {"setup_s", "s",
         *std::min_element(setup_samples.begin(), setup_samples.end())},
        {"peak_rss_mb", "MB", pass_peak_rss_mb},
        {"virtual_s", "s", virtual_s},
        {"link_kb", "KiB", link_kb},
    };
  } else {
    // Self time and span totals per pass over the unit list. When the traced
    // runs did not reproduce the untraced virtual outputs, the shims
    // perturbed the program and their spans are dropped.
    const SpanRecorder::Totals all = rec->totals();
    const auto self = [&](Layer l) {
      return trace_match ? spans_pass.self(l) : 0.0;
    };
    const auto mean_ms = [&](Layer l) {
      return trace_match ? ratio(all.total(l),
                                 static_cast<double>(rec->count(l))) * 1e3
                         : 0.0;
    };
    const double vm_ops =
        get("vm.invocations") + get("vm.field_accesses") + get("vm.allocations");
    const double replay_s = trace_match ? spans_pass.total(Layer::emul) : 0.0;
    const aide::bench::LatencySummary rpc_ops =
        aide::bench::summarize_latency(rpc_latencies);
    const aide::bench::LatencySummary ops =
        aide::bench::summarize_latency(op_latencies);
    const auto setup_host = [&](const std::string& k) {
      const auto it = setup_counters.host.find(k);
      return it == setup_counters.host.end() ? 0.0 : it->second;
    };
    metrics = {
        {"apps.register_ms", "ms",
         trace_match ? all.total(Layer::apps) * 1e3 : 0.0},
    };
    for (const char* app : {"JavaNote", "Dia", "Biomer", "Voxel", "Tracer"}) {
      const std::string k = std::string("apps.") + app;
      metrics.push_back({k + ".virtual_s", "s",
                         ratio(get(k + ".virtual_s"), get(k + ".units"))});
    }
    const std::vector<Metric> rest = {
        {"analysis.gates_ms", "ms", mean_ms(Layer::analysis)},
        {"vm.self_s", "s", self(Layer::vm)},
        {"vm.ns_per_op", "ns", ratio(self(Layer::vm) * 1e9, vm_ops)},
        {"vm.invocations", "count", get("vm.invocations")},
        {"vm.field_accesses", "count", get("vm.field_accesses")},
        {"vm.allocations", "count", get("vm.allocations")},
        {"vm.gc_cycles", "count", get("vm.gc_cycles")},
        {"vm.remote_share", "ratio",
         ratio(get("vm.remote_ops"),
               get("vm.invocations") + get("vm.field_accesses"))},
        {"monitor.self_s", "s", self(Layer::monitor)},
        {"monitor.events", "count", get("monitor.events")},
        {"monitor.graph_nodes", "count", get("monitor.graph_nodes")},
        {"monitor.graph_edges", "count", get("monitor.graph_edges")},
        {"partition.decide_ms", "ms", host_per_pass("partition.decide_ms")},
        {"partition.decisions", "count", get("partition.decisions")},
        {"partition.feasible_ratio", "ratio",
         ratio(get("partition.candidates_feasible"),
               get("partition.candidates_total"))},
        {"partition.offload_share", "ratio",
         ratio(get("partition.offload_bytes"), get("partition.heap_before"))},
        {"graph.mincut_nodes", "count", get("graph.mincut_nodes")},
        {"graph.mincut_edges", "count", get("graph.mincut_edges")},
        {"rpc.self_s", "s", self(Layer::rpc)},
        {"rpc.calls", "count", shim_ops_pass},
        {"rpc.coverage", "ratio", ratio(shim_ops_pass, get("rpc.ops"))},
        {"rpc.op_virtual_ms_p50", "ms", rpc_ops.p50_ns * 1e-6},
        {"rpc.op_virtual_ms_p99", "ms", rpc_ops.p99_ns * 1e-6},
        {"rpc.frames", "count", get("rpc.frames")},
        {"rpc.ops", "count", get("rpc.ops")},
        {"rpc.ops_per_frame", "ratio", ratio(get("rpc.ops"), get("rpc.frames"))},
        {"rpc.bytes", "B", get("rpc.bytes")},
        {"rpc.readahead_hits", "count", get("rpc.readahead_hits")},
        {"rpc.objects_migrated", "count", get("rpc.objects_migrated")},
        {"rpc.bytes_migrated", "B", get("rpc.bytes_migrated")},
        {"rpc.retries", "count", get("rpc.retries")},
        {"rpc.timeouts", "count", get("rpc.timeouts")},
        {"rpc.aborted", "count", get("rpc.aborted")},
        {"rpc.frames_rejected", "count", get("rpc.frames_rejected")},
        {"netsim.busy_virtual_s", "s", get("netsim.busy_virtual_s")},
        {"netsim.messages", "count", get("netsim.messages")},
        {"netsim.delivery_ratio", "ratio",
         ratio(get("netsim.messages"), get("netsim.attempts"))},
        {"platform.migration_virtual_s", "s",
         get("platform.migration_virtual_s")},
        {"platform.disconnects", "count", get("platform.disconnects")},
        {"platform.reconciles", "count", get("platform.reconciles")},
        {"platform.entries_replayed", "count",
         get("platform.entries_replayed")},
        {"platform.hoarded_kb", "KiB", get("platform.hoarded_kb")},
        {"platform.disconnected_virtual_s", "s",
         get("platform.disconnected_virtual_s")},
        {"platform.round_ms", "ms", mean_ms(Layer::round)},
        {"platform.turns", "count", get("platform.turns")},
        {"platform.placements", "count", get("platform.placements")},
        {"platform.replacements", "count", get("platform.replacements")},
        {"platform.admission_rejections", "count",
         get("platform.admission_rejections")},
        {"platform.fairness_spread", "ratio",
         ratio(get("platform.fairness_spread"), static_cast<double>(n))},
        {"emul.replay_ms", "ms", replay_s * 1e3},
        {"emul.events", "count", get("emul.events")},
        {"emul.ns_per_event", "ns", ratio(replay_s * 1e9, get("emul.events"))},
        {"emul.record_s", "s", setup_host("emul.record_s")},
        {"emul.comm_virtual_s", "s", get("emul.comm_virtual_s")},
        {"emul.migration_virtual_s", "s", get("emul.migration_virtual_s")},
        {"emul.gc_pressure_virtual_s", "s", get("emul.gc_pressure_virtual_s")},
        {"emul.queue_virtual_s", "s", get("emul.queue_virtual_s")},
        {"emul.queue_share", "ratio",
         ratio(get("emul.queue_virtual_s"), get("emul.emulated_virtual_s"))},
        {"op_virtual_ms_p50", "ms", ops.p50_ns * 1e-6},
        {"op_virtual_ms_p99", "ms", ops.p99_ns * 1e-6},
        {"trace.overhead", "ratio",
         ratio(paired_traced_s, paired_untraced_s) - 1.0},
        {"trace.virtual_match", "bool", trace_match ? 1.0 : 0.0},
        {"trace.spans", "count",
         static_cast<double>(rec->recorded() + rec->dropped())},
    };
    metrics.insert(metrics.end(), rest.begin(), rest.end());
    if (!a.spans_out.empty() && trace_match) {
      if (!rec->write(a.spans_out)) {
        std::fprintf(stderr, "perfbench: could not write %s\n",
                     a.spans_out.c_str());
      }
    }
  }

  // --- report -----------------------------------------------------------------
  std::printf("perfbench %s seed=%llu trace=%d: %zu units, %llu runs, "
              "%llu failed\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.opt.seed),
              a.trace ? 1 : 0, n, static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < n; ++i) {
    if (!state[i].first.has_value()) continue;
    std::printf("  %-28s virtual %9.3f s  link %10.1f KiB  host %8.2f ms "
                "(fastest of %zu)\n",
                w->unit_name(i).c_str(), state[i].first->virtual_s,
                state[i].first->link_kb,
                state[i].host_s.empty()
                    ? 0.0
                    : *std::min_element(state[i].host_s.begin(),
                                        state[i].host_s.end()) * 1e3,
                state[i].host_s.size());
  }
  for (const std::string& f : failures) std::printf("  FAILED %s\n", f.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16s %s\n", m.name.c_str(), num(m.value).c_str(),
                m.unit.c_str());
  }

  std::string meta = "{\"workload\": " + quote(a.workload) +
                     ", \"seed\": " + std::to_string(a.opt.seed) +
                     ", \"held_out_seed\": " + std::to_string(kHeldOutSeed) +
                     ", \"trace\": " + (a.trace ? "1" : "0") +
                     ", \"reduced\": " + (a.opt.reduced ? "true" : "false") +
                     ", \"host\": {\"cpu\": " + quote(cpu_model()) +
                     ", \"nproc\": " +
                     std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                     ", \"compiler\": " + quote(PERFBENCH_COMPILER) +
                     ", \"build_type\": " + quote(PERFBENCH_BUILD_TYPE) + "}" +
                     ", \"warmup_units_excluded\": " + std::to_string(warm) +
                     ", \"timed_runs\": " + std::to_string(timed_runs) +
                     ", \"failed_frac\": " + num(failed_frac) +
                     ", \"virtual_digest\": \"";
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest));
  meta += std::string(hex) + "\", \"samples\": {\"setup_s\": " +
          summary_json(setup_samples) +
          ", \"units_per_host_s\": " +
          num(ratio(static_cast<double>(unit_best_ms.size()), best_sum_s)) +
          ", \"unit_host_ms_fastest\": " + summary_json(unit_best_ms) +
          ", \"unit_host_ms_p50\": " + num(quantile(unit_best_ms, 0.5)) +
          ", \"unit_host_ms_p90\": " + num(quantile(unit_best_ms, 0.9)) +
          ", \"unit_host_ms_median\": " + summary_json(unit_median_ms) +
          ", \"units_per_host_s_per_pass\": " + summary_json(pass_rates) +
          "}, \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    meta += (i ? ", " : "") + quote(failures[i]);
  }
  meta += "]}";
  std::printf("perfbench-meta %s\n", meta.c_str());

  std::string out = "{\"correct\": ";
  out += failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + quote(metrics[i].name) + ": {\"value\": " +
           num(metrics[i].value) + ", \"unit\": " + quote(metrics[i].unit) +
           "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
