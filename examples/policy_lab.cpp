// Policy laboratory: explore how trigger and partitioning policies change
// the offloading behaviour for one application (paper Figure 7's question).
//
// Records a Dia trace once, then replays it under a grid of policies,
// printing when the offload fired, how much was shipped, and the resulting
// overhead — the kind of exploration the paper argues a deployed platform
// must perform dynamically ("the system needs to be able to select among
// policies and policy parameters").
#include <cstdio>
#include <memory>

#include "apps/apps.hpp"
#include "emul/emulator.hpp"
#include "emul/recorder.hpp"
#include "vm/vm.hpp"

using namespace aide;

int main() {
  auto registry = std::make_shared<vm::ClassRegistry>();
  const auto& app = apps::app_by_name("Dia");
  app.register_classes(*registry);

  SimClock clock;
  vm::VmConfig vm_cfg;
  vm_cfg.heap_capacity = std::int64_t{64} << 20;
  vm_cfg.gc_alloc_count_threshold = 1024;
  vm_cfg.gc_alloc_bytes_divisor = 256;
  vm::Vm client(vm_cfg, registry, clock);
  emul::TraceRecorder recorder;
  client.add_hooks(&recorder);
  app.run(client, apps::AppParams{});
  const emul::Trace trace = recorder.take();
  std::printf("Dia trace: %zu events, %.1f s client-only\n\n", trace.size(),
              sim_to_seconds(trace.duration()));

  std::printf("%9s %5s %9s | %10s %9s %9s %9s\n", "threshold", "tol",
              "min-free", "offload@", "shipped", "time", "overhead");
  for (const double threshold : {0.02, 0.05, 0.25, 0.50}) {
    for (const int tolerance : {1, 3}) {
      for (const double min_free : {0.10, 0.40}) {
        emul::EmulatorConfig cfg;
        cfg.heap_capacity = std::int64_t{6} << 20;
        cfg.trigger.low_free_threshold = threshold;
        cfg.trigger.consecutive_reports = tolerance;
        cfg.min_free_fraction = min_free;
        cfg.surrogate_speedup = 1.0;
        cfg.gc_pressure_cost_ns_per_live_byte = 100.0;
        emul::Emulator emu(registry, cfg);
        const auto r = emu.run(trace);
        if (r.offloaded()) {
          std::printf("%8.0f%% %5d %8.0f%% | %8.1f s %6llu KB %7.1f s %+8.1f%%\n",
                      threshold * 100, tolerance, min_free * 100,
                      sim_to_seconds(r.offloads[0].at),
                      static_cast<unsigned long long>(
                          r.offloads[0].migrated_bytes / 1024),
                      sim_to_seconds(r.emulated_time),
                      r.overhead_fraction() * 100.0);
        } else {
          std::printf("%8.0f%% %5d %8.0f%% | %10s %9s %7.1f s %+8.1f%%\n",
                      threshold * 100, tolerance, min_free * 100, "never", "-",
                      sim_to_seconds(r.emulated_time),
                      r.overhead_fraction() * 100.0);
        }
      }
    }
  }
  return 0;
}
