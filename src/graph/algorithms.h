#ifndef TREELOCAL_GRAPH_ALGORITHMS_H_
#define TREELOCAL_GRAPH_ALGORITHMS_H_

#include <vector>

#include "src/graph/graph.h"

namespace treelocal {

// Centralized graph routines used for workload validation, component
// bookkeeping in the gather phases, and test oracles.

// BFS distances from `source`; unreachable nodes get -1.
std::vector<int> BfsDistances(const Graph& g, int source);

// Connected components; returns component id per node and sets *num_components.
std::vector<int> ConnectedComponents(const Graph& g, int* num_components);

// Connected components of the subgraph induced by nodes with mask[v] == true.
// Nodes outside the mask get component id -1.
std::vector<int> MaskedComponents(const Graph& g, const std::vector<char>& mask,
                                  int* num_components);

// Exact diameter of each masked component of a tree or forest g, measured
// within the mask by a double BFS (BFS to a farthest node, then BFS from
// it), which is exact because every masked component of a forest is a tree.
// `comp` / `num_components` are MaskedComponents' output. Cost: one n-sized
// scratch array per call plus O(masked nodes + masked edges), where masked
// edges counts every edge incident to a masked node.
// Returns a vector indexed by component id.
std::vector<int> MaskedTreeComponentDiameters(const Graph& g,
                                              const std::vector<char>& mask,
                                              const std::vector<int>& comp,
                                              int num_components);

// True if g is acyclic (a forest).
bool IsForest(const Graph& g);

// True if g is connected and acyclic.
bool IsTree(const Graph& g);

// Exact arboricity upper-bound check: verifies the edge set can be covered by
// `a` forests via a simple greedy (valid certificate only; used in tests on
// generator outputs where a greedy suffices). Returns true if greedy found a
// cover with <= a forests.
bool GreedyForestCover(const Graph& g, int a);

// For each masked component of a *tree* g: the gather leader, the node
// maximizing key[v] within the component (ties go to the lowest index), its
// eccentricity measured inside the mask, and the component's nodes in
// ascending order. Entries are ordered by component id (MaskedComponents'
// numbering). Cost: O(n) per call for the component ids and scratch, plus
// O(masked nodes + masked edges) (as above) for the leader searches,
// independent of the number of components.
struct ComponentLeader {
  int leader = -1;
  int eccentricity = 0;  // max distance from leader within component
  std::vector<int> nodes;
};
std::vector<ComponentLeader> MaskedComponentLeaders(
    const Graph& g, const std::vector<char>& mask,
    const std::vector<int64_t>& key);

}  // namespace treelocal

#endif  // TREELOCAL_GRAPH_ALGORITHMS_H_
