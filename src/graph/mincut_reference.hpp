// Reference partitioning implementations (pre-optimization).
//
// These are the original dense-matrix O(V^2)/O(V^3) algorithms, retained
// verbatim for two purposes:
//   * the randomized differential test asserts the optimized incremental
//     modified_mincut and adjacency-list Stoer-Wagner in mincut.cpp produce
//     identical candidate sequences and cut weights;
//   * bench_graph_hotpath measures them live in the same binary as the
//     "pre-PR baseline" column of BENCH_hotpath.json.
// It also holds the exponential-time exact minimum cut that the property
// tests check both Stoer-Wagner implementations against.
//
// Do not optimize this file; its value is being the slow-but-obviously-
// correct oracle.
#pragma once

#include "graph/mincut.hpp"

namespace aide::graph::reference {

// Original candidate-series heuristic: O(E) edge rescan per candidate plus a
// full offload-set copy per snapshot.
[[nodiscard]] std::vector<Candidate> modified_mincut(
    const ExecGraph& graph, const EdgeWeightFn& weight = {});

// Original Stoer-Wagner: dense weight matrix, per-phase allocations and
// std::find-based erase of the contracted vertex.
[[nodiscard]] GlobalCut stoer_wagner_min_cut(const ExecGraph& graph,
                                             const EdgeWeightFn& weight = {});

// Exponential-time exact minimum cut (n <= 20), test oracle only.
[[nodiscard]] GlobalCut brute_force_min_cut(const ExecGraph& graph,
                                            const EdgeWeightFn& weight = {});

}  // namespace aide::graph::reference
