// Static-hints ablation — MINCUT problem size and solve time with the
// aidelint pre-contraction off vs on.
//
// For each application: run to completion on a single instrumented VM,
// take the execution graph the monitor built, and evaluate the partitioning
// policy twice on identical history — once purely dynamically (the paper
// pipeline) and once with the static analyzer's hints contracting the graph
// before the modified-MINCUT candidate series is generated. The offload
// decision must not degrade; the win is a smaller cut problem.
#include <cstdio>
#include <memory>

#include "analysis/analyzer.hpp"
#include "bench_util.hpp"
#include "monitor/monitor.hpp"
#include "partition/partitioner.hpp"
#include "vm/vm.hpp"

using namespace aide;
using namespace aide::bench;

int main() {
  print_header(
      "Static-hints ablation: MINCUT input size, hints off vs on");

  std::printf(
      "  %-9s | %13s | %13s | %9s | %11s | %s\n", "app",
      "nodes off/on", "edges off/on", "reduction", "cands off/on",
      "solve off/on (ms)");
  std::printf(
      "  ----------+---------------+---------------+-----------+-------------+"
      "------------------\n");

  for (const auto& app : apps::all_apps()) {
    auto registry = std::make_shared<vm::ClassRegistry>();
    app.register_classes(*registry);

    // Single well-provisioned VM: the monitor sees the whole execution.
    SimClock clock;
    vm::VmConfig cfg;
    cfg.heap_capacity = std::int64_t{64} << 20;
    vm::Vm vm(cfg, registry, clock);
    monitor::ExecutionMonitor monitor(registry, monitor::MonitorConfig{});
    vm.add_hooks(&monitor);
    app.run(vm, apps::AppParams{});
    vm.remove_hooks(&monitor);
    monitor.prune_dead_components();

    const auto report = analysis::analyze(*registry);

    partition::PartitionRequest req;
    req.objective = partition::Objective::free_memory;
    req.min_free_bytes = static_cast<std::int64_t>(0.20 * kPaperHeap);
    req.history_duration = clock.now();

    const auto plain = partition::decide_partitioning(monitor.graph(), req);
    req.hints = &report.hints;
    const auto hinted = partition::decide_partitioning(monitor.graph(), req);

    const double reduction =
        plain.mincut_nodes == 0
            ? 0.0
            : 100.0 *
                  static_cast<double>(plain.mincut_nodes -
                                      hinted.mincut_nodes) /
                  static_cast<double>(plain.mincut_nodes);
    std::printf(
        "  %-9s | %5zu / %5zu | %5zu / %5zu | %8.1f%% | %5zu / %5zu |"
        " %7.2f / %7.2f\n",
        app.name.c_str(), plain.mincut_nodes, hinted.mincut_nodes,
        plain.mincut_edges, hinted.mincut_edges, reduction,
        plain.candidates_total, hinted.candidates_total,
        plain.compute_seconds * 1e3, hinted.compute_seconds * 1e3);

    if (plain.offload != hinted.offload) {
      std::printf("  !! %s: offload decision changed (off=%d on=%d)\n",
                  app.name.c_str(), plain.offload, hinted.offload);
    }
  }

  std::printf(
      "\n  Contraction folds the statically pinned closure into one client\n"
      "  anchor and merges zero-benefit single-neighbor pairs, so MINCUT\n"
      "  never enumerates cuts the analyzer already ruled out.\n");
  return 0;
}
