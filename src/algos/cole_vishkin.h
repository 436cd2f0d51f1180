#ifndef TREELOCAL_ALGOS_COLE_VISHKIN_H_
#define TREELOCAL_ALGOS_COLE_VISHKIN_H_

#include <cstdint>
#include <vector>

#include "src/graph/graph.h"
#include "src/local/network.h"

namespace treelocal {

// Deterministic 3-coloring of a rooted forest in O(log* n) rounds
// [GPS87, Cole-Vishkin]: iterated bit-index color reduction to 6 colors,
// then three shift-down + recolor phases down to {0,1,2}.
struct ColeVishkinResult {
  std::vector<int> colors;  // in {0,1,2}
  int rounds = 0;
  int64_t messages = 0;  // engine messages delivered
  // Per-round engine counters (parity-checked against the reference engine).
  std::vector<local::RoundStats> round_stats;
};

// `parent[v]` is the parent node index or -1 for roots. `ids` are distinct;
// `id_space` is an exclusive upper bound on them (the schedule length is a
// function of the ID space, which all nodes know). The graph must be a
// forest whose edges are exactly {v, parent[v]}. Runs on a Network with
// `num_threads` lanes; bit-identical for every thread count (engine parity
// tests).
ColeVishkinResult ColeVishkin3Color(const Graph& forest,
                                    const std::vector<int64_t>& ids,
                                    const std::vector<int>& parent,
                                    int64_t id_space, int num_threads = 1);

// Same run on the naive ReferenceNetwork; bit-identical by contract and
// asserted so by the engine parity tests.
ColeVishkinResult ColeVishkin3ColorReference(const Graph& forest,
                                             const std::vector<int64_t>& ids,
                                             const std::vector<int>& parent,
                                             int64_t id_space);

// Number of Cole-Vishkin iterations needed from an ID space of the given
// size until colors are in {0..5} (exposed for round-bound tests).
int ColeVishkinIterations(int64_t id_space);

}  // namespace treelocal

#endif  // TREELOCAL_ALGOS_COLE_VISHKIN_H_
