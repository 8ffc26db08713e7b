// Figure 10 — effect of offloading on application performance under
// processing constraints (surrogate 3.5x faster than the client, WaveLAN).
//
// Bars per application: Original (client only), Initial (offloading, no
// enhancements), Native (stateless natives execute where invoked), Array
// (primitive int arrays at object granularity), Combined (both).
//
// Paper results: the Initial offload makes things worse (every Math call
// from the surrogate routes back to the client); with the enhancements,
// Voxel and Tracer improve (savings up to ~15%); for Biomer "the system
// determined that there was no beneficial partitioning, and correctly
// decided not to offload" (predicted 790 s vs 750 s original) — though a
// manual partitioning (711 s) existed.
#include <string>

#include "bench_util.hpp"

using namespace aide;
using namespace aide::bench;

namespace {

void report(const char* label, const emul::EmulationResult& r) {
  if (r.offloaded()) {
    std::printf("    %-9s %8.1f s  (remote: %llu calls / %llu native / "
                "%llu accesses)\n",
                label, sim_to_seconds(r.emulated_time),
                static_cast<unsigned long long>(r.remote_invocations),
                static_cast<unsigned long long>(
                    r.remote_native_invocations),
                static_cast<unsigned long long>(r.remote_accesses));
  } else {
    std::printf("    %-9s %8.1f s  (declined: over the history window the "
                "best candidate predicted %.1f s vs %.1f s unpartitioned)\n",
                label, sim_to_seconds(r.emulated_time),
                r.declined.empty()
                    ? 0.0
                    : sim_to_seconds(
                          r.declined[0].predicted_offloaded_time),
                r.declined.empty()
                    ? 0.0
                    : sim_to_seconds(r.declined[0].predicted_original_time));
  }
}

}  // namespace

int main() {
  print_header(
      "Figure 10: offloading under processing constraints "
      "(surrogate 3.5x, WaveLAN)");

  for (const char* name : {"Voxel", "Tracer", "Biomer"}) {
    const RecordedApp app = record_app(name);
    std::printf("  %s\n", name);

    // Original = the recorded client-only execution.
    emul::EmulatorConfig base;
    base.max_offloads = 0;
    base.surrogate_speedup = 1.0;
    base.heap_capacity = std::int64_t{64} << 20;
    emul::Emulator original(app.registry, base);
    const auto orig = original.run(app.trace);
    std::printf("    %-9s %8.1f s\n", "Original",
                sim_to_seconds(orig.base_time));

    report("Initial", emulate_cpu(app, false, false));
    report("Native", emulate_cpu(app, true, false));
    report("Array", emulate_cpu(app, false, true));
    const auto combined = emulate_cpu(app, true, true);
    report("Combined", combined);

    if (!combined.offloaded() && std::string(name) == "Biomer") {
      // The paper found Biomer's manual partitioning by hand; emulate the
      // "offload the compute and data, keep the UI" placement directly.
      emul::EmulatorConfig manual_cfg;
      manual_cfg.trigger_mode = emul::TriggerMode::trace_fraction;
      manual_cfg.eval_at_fraction = 0.10;
      manual_cfg.surrogate_speedup = 3.5;
      manual_cfg.heap_capacity = std::int64_t{64} << 20;
      manual_cfg.stateless_natives_local = true;
      manual_cfg.arrays_as_objects = true;
      manual_cfg.manual_offload_classes = {
          "Bio.ForceField", "Bio.Atom", "Bio.Molecule", "Bio.Bond",
          "Bio.Analyzer", "Object[]", "int[]"};
      emul::Emulator manual(app.registry, manual_cfg);
      const auto m = manual.run(app.trace);
      std::printf("    %-9s %8.1f s  (hand-picked placement, as the paper's "
                  "711 s manual partitioning)\n",
                  "Manual", sim_to_seconds(m.emulated_time));
    }

    const double best = sim_to_seconds(combined.emulated_time);
    const double orig_s = sim_to_seconds(orig.base_time);
    std::printf("    -> Combined vs Original: %+.1f%%\n",
                (best - orig_s) / orig_s * 100.0);
  }
  return 0;
}
