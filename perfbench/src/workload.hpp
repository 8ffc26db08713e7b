// The benchmark's workloads and what one unit of work reports.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/simclock.hpp"
#include "spans.hpp"

namespace perfbench {

// Named per-layer values for one unit. `virt` holds virtual-time metrics
// and counters: they are deterministic, fold into the unit's digest and must
// repeat exactly. `host` holds host-measured values (reported, not
// digested).
struct Counters {
  std::map<std::string, double> virt;
  std::map<std::string, double> host;

  void add(const std::string& name, double v) { virt[name] += v; }
  void add_host(const std::string& name, double v) { host[name] += v; }
  void merge(const Counters& o) {
    for (const auto& [k, v] : o.virt) virt[k] += v;
    for (const auto& [k, v] : o.host) host[k] += v;
  }
};

struct UnitResult {
  bool ok = true;
  std::string error;             // why the unit failed, empty when ok
  std::uint64_t checksum = 0;    // the unit's observable output
  std::uint64_t reference = 0;   // what it must equal
  double virtual_s = 0.0;        // client completion time, virtual
  double link_kb = 0.0;          // bytes over the simulated link
  Counters counters;
  // Fleet only: virtual latency of every op the pool scripts issued and of
  // every remote op of the emulated fleet, queueing included.
  std::vector<aide::SimDuration> op_latencies;
  // Virtual latency of each op the traced rpc shims forwarded (traced runs
  // only; not digested, so traced and untraced digests compare).
  std::vector<aide::SimDuration> rpc_latencies;
  std::uint64_t shim_ops = 0;    // ops the traced rpc shims saw

  // Digest of everything deterministic the unit produced.
  [[nodiscard]] std::uint64_t digest() const;
};

struct Options {
  std::uint64_t seed = 1;
  bool reduced = false;          // the benchmark's self-test scale
  bool inject_mismatch = false;  // corrupt unit 0's reference (self-test)
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Class registration, references and trace recording. Host time spent
  // here is the run's setup_s.
  virtual void setup(SpanRecorder* rec) = 0;
  [[nodiscard]] virtual std::size_t units() const = 0;
  [[nodiscard]] virtual std::string unit_name(std::size_t i) const = 0;
  // Runs unit `i`; with a recorder, also records its spans through shims.
  virtual UnitResult run_unit(std::size_t i, SpanRecorder* rec) = 0;
  // Units run once, untimed, before timing starts.
  [[nodiscard]] virtual std::size_t warmup_units() const = 0;
  // Set-ups in an untraced run; setup_s is the fastest, since interference
  // from the rest of the host only ever adds time. Enough for 2-5 s of
  // set-up, so a short set-up gets many tries. The count is fixed rather than
  // timed because it shapes the allocator's history, and with it peak RSS: a
  // count that followed the host's speed moved flaky-link's peak by up to
  // 2 MB on one seed.
  [[nodiscard]] virtual int setup_reps() const = 0;
  // Host-measured values of the last setup() (trace recording time).
  [[nodiscard]] virtual Counters setup_counters() const { return {}; }
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Options& opt);

std::uint64_t mix(std::uint64_t h, std::uint64_t v);
std::uint64_t mix_double(std::uint64_t h, double v);

}  // namespace perfbench
