// Ablation — the paper's argument for the modified MINCUT heuristic
// (section 3.3): plain MINCUT "bisects a graph along the cut with the fewest
// interactions ... However, it may simply remove a single component, which
// may not free enough memory to satisfy the partitioning policy."
//
// For each memory-intensive application's execution graph, compare:
//   * plain Stoer-Wagner global minimum cut (ignores pinning and policy),
//   * the modified-MINCUT candidate series + policy selection.
#include <memory>

#include "bench_util.hpp"
#include "graph/mincut.hpp"
#include "monitor/monitor.hpp"
#include "partition/partitioner.hpp"
#include "vm/vm.hpp"

using namespace aide;
using namespace aide::bench;

int main() {
  print_header("Ablation: plain Stoer-Wagner vs modified MINCUT + policy");

  for (const char* name : {"JavaNote", "Dia", "Biomer"}) {
    auto registry = std::make_shared<vm::ClassRegistry>();
    const auto& app = apps::app_by_name(name);
    app.register_classes(*registry);

    SimClock clock;
    vm::VmConfig cfg;
    cfg.heap_capacity = std::int64_t{64} << 20;
    vm::Vm vm(cfg, registry, clock);
    monitor::ExecutionMonitor monitor(registry);
    vm.add_hooks(&monitor);
    app.run(vm, apps::AppParams{});
    monitor.prune_dead_components();

    const auto& g = monitor.graph();
    const std::int64_t required =
        static_cast<std::int64_t>(0.20 * static_cast<double>(kPaperHeap));

    const auto plain = graph::stoer_wagner_min_cut(g);
    std::int64_t plain_mem = 0;
    bool plain_touches_pinned = false;
    for (const auto& key : plain.side) {
      if (const auto* node = g.find_node(key)) {
        plain_mem += node->mem_bytes;
        plain_touches_pinned |= node->pinned;
      }
    }

    partition::PartitionRequest req;
    req.objective = partition::Objective::free_memory;
    req.min_free_bytes = required;
    req.history_duration = clock.now();
    const auto decision = partition::decide_partitioning(g, req);

    std::printf("  %-10s graph: %3zu components, %4zu edges, need >= %lld KB freed\n",
                name, g.node_count(), g.edge_count(),
                static_cast<long long>(required / 1024));
    std::printf(
        "    plain MINCUT:    cut weight %12.0f, side %3zu comps, frees "
        "%6lld KB  -> %s%s\n",
        plain.weight, plain.side.size(),
        static_cast<long long>(plain_mem / 1024),
        plain_mem >= required ? "feasible" : "INSUFFICIENT",
        plain_touches_pinned ? " (and would move pinned components!)" : "");
    if (decision.offload) {
      std::printf(
          "    modified MINCUT: cut weight %12.0f, side %3zu comps, frees "
          "%6lld KB  -> selected (%zu/%zu candidates feasible)\n",
          decision.selected.cut_weight, decision.selected.offload.size(),
          static_cast<long long>(decision.selected.offload_mem_bytes / 1024),
          decision.candidates_feasible, decision.candidates_total);
    } else {
      std::printf("    modified MINCUT: no feasible candidate\n");
    }
  }
  return 0;
}
