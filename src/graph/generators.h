#ifndef TREELOCAL_GRAPH_GENERATORS_H_
#define TREELOCAL_GRAPH_GENERATORS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/graph/graph.h"

namespace treelocal {

// Workload generators. Trees cover the worst-case families that drive the
// paper's bounds (paths = deep rake chains, stars = one huge compress-free
// rake, balanced regular trees = the lower-bound instances, uniform random
// trees = "typical"); arboricity generators cover Theorem 15's regime.

// Path on n nodes (n >= 1).
Graph Path(int n);

// Star with one center and n-1 leaves (n >= 1).
Graph Star(int n);

// Balanced tree in which the root has `delta` children and every other
// internal node has delta-1 children (so every internal node has degree
// delta), filled level by level up to exactly n nodes. delta >= 2.
Graph BalancedRegularTree(int n, int delta);

// Uniformly random labeled tree via a random Pruefer sequence.
Graph UniformRandomTree(int n, uint64_t seed);

// Random recursive tree: node i attaches to a uniform node < i.
Graph RandomRecursiveTree(int n, uint64_t seed);

// Random tree with maximum degree <= max_degree (attachment rejects full
// nodes). max_degree >= 2.
Graph BoundedDegreeRandomTree(int n, int max_degree, uint64_t seed);

// Caterpillar: spine path of length `spine`, each spine node gets `legs`
// leaves. n = spine * (legs + 1).
Graph Caterpillar(int spine, int legs);

// Spider: `legs` paths of length `leg_len` glued at a center node.
Graph Spider(int legs, int leg_len);

// Complete binary tree on n nodes (heap-shaped).
Graph CompleteBinaryTree(int n);

// rows x cols grid graph (arboricity <= 2).
Graph Grid(int rows, int cols);

// rows x cols grid with one diagonal per cell (planar, arboricity <= 3).
Graph TriangulatedGrid(int rows, int cols);

// Union of `a` independent uniform random spanning trees on n nodes, with
// duplicate edges dropped: arboricity <= a by construction.
Graph ForestUnion(int n, int a, uint64_t seed);

// The spanning trees ForestUnion(n, a, seed) is built from — an explicit
// arboricity certificate (every edge of the union lies in at least one of
// these trees).
std::vector<Graph> ForestUnionParts(int n, int a, uint64_t seed);

// Union of `a` spanning stars with distinct random centers (duplicates
// dropped): arboricity <= a but maximum degree ~ n. The adversarial
// workload for Algorithm 3 — hubs force multiple layers and atypical edges.
Graph StarUnion(int n, int a, uint64_t seed);

// Hub-and-spoke bounded-arboricity graph: a random tree whose `hubs`
// highest-indexed nodes are additionally connected to many random nodes,
// realized as a union of `a` forests (arboricity <= a, large max degree).
Graph HubbedForest(int n, int a, uint64_t seed);

// Named tree families for parameterized sweeps.
enum class TreeFamily {
  kPath,
  kStar,
  kBalanced3,    // BalancedRegularTree(n, 3)
  kBalanced8,    // BalancedRegularTree(n, 8)
  kUniform,      // UniformRandomTree
  kRecursive,    // RandomRecursiveTree
  kCaterpillar,  // spine n/4, legs 3
  kBinary,
};

Graph MakeTree(TreeFamily family, int n, uint64_t seed);
std::string TreeFamilyName(TreeFamily family);
std::vector<TreeFamily> AllTreeFamilies();

// Callback receiving one undirected edge {u, v} of a generated workload.
using EdgeSink = std::function<void(int u, int v)>;

// Streaming form of MakeTree: emits the exact edge sequence
// MakeTree(family, n, seed) would pass to Graph::FromEdges, one edge at a
// time, without materializing the list — MakeTree itself is implemented on
// top of this, so the two can never drift. kUniform runs in O(n) time with
// O(n) working state (the Pruefer sequence and degree array of a
// linear-time decode); every other family needs O(1) or O(frontier) state;
// no O(m) edge buffer anywhere.
// Returns the node count of the emitted graph (kCaterpillar rounds n to
// spine * 4 exactly as MakeTree does). Feeding tools/graph_convert with
// this is how a 10^8-edge .cgr gets built without a 10^8-entry edge list.
int MakeTreeStreamed(TreeFamily family, int n, uint64_t seed,
                     const EdgeSink& sink);

// Streaming form of ForestUnion: emits every edge of each of the `a`
// spanning trees in turn, normalized min-endpoint-first. Edges shared by
// several trees are re-emitted once per tree — consumers needing the
// deduplicated union (graph_convert's external sort collapses repeats)
// must dedup; the resulting edge SET equals ForestUnion(n, a, seed)'s.
void ForestUnionStreamed(int n, int a, uint64_t seed, const EdgeSink& sink);

}  // namespace treelocal

#endif  // TREELOCAL_GRAPH_GENERATORS_H_
