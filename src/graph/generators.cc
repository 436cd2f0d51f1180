#include "src/graph/generators.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <stdexcept>

#include "src/support/rng.h"

namespace treelocal {

namespace {

// Streamed per-family edge emitters. The eager Graph builders below and
// MakeTreeStreamed both run on these, so the streamed edge sequence equals
// the eager edge list by construction — the .cgr-vs-Graph parity gates
// depend on that. None buffers the edge list; working state is noted where
// it exceeds O(1).
void PathEdges(int n, const EdgeSink& sink) {
  for (int i = 0; i + 1 < n; ++i) sink(i, i + 1);
}

void StarEdges(int n, const EdgeSink& sink) {
  for (int i = 1; i < n; ++i) sink(0, i);
}

// Level-order ids make the parent arithmetic: the root's delta children are
// 1..delta, after which capacities are uniform delta - 1 and node i's
// parent is (i - delta - 1) / (delta - 1) + 1 — the closed form of the old
// BFS frontier walk, emitting the identical (parent, i) sequence.
void BalancedEdges(int n, int delta, const EdgeSink& sink) {
  if (delta < 2) throw std::invalid_argument("delta must be >= 2");
  for (int i = 1; i < n; ++i) {
    const int parent = i <= delta ? 0 : (i - delta - 1) / (delta - 1) + 1;
    sink(parent, i);
  }
}

// Linear-time Pruefer decoding; O(n) working state (degrees), no edge list.
// `ptr` scans forward for the smallest unused leaf; a node that becomes a
// leaf below `ptr` is the smallest leaf at that moment, so it goes next.
// Emits the same sequence as popping the minimum of an ordered leaf set.
void UniformEdges(int n, uint64_t seed, const EdgeSink& sink) {
  if (n <= 2) {
    PathEdges(std::max(n, 0), sink);
    return;
  }
  Rng rng(seed);
  std::vector<int> prufer(n - 2);
  for (auto& x : prufer) x = static_cast<int>(rng.NextBelow(n));
  std::vector<int> degree(n, 1);
  for (int x : prufer) ++degree[x];
  int ptr = 0;
  while (degree[ptr] != 1) ++ptr;
  int leaf = ptr;
  for (int x : prufer) {
    sink(leaf, x);
    if (--degree[x] == 1 && x < ptr) {
      leaf = x;
    } else {
      do {
        ++ptr;
      } while (degree[ptr] != 1);
      leaf = ptr;
    }
  }
  // The two nodes left are `leaf` and n - 1, which is never removed.
  sink(leaf, n - 1);
}

void RecursiveEdges(int n, uint64_t seed, const EdgeSink& sink) {
  Rng rng(seed);
  for (int i = 1; i < n; ++i) {
    sink(static_cast<int>(rng.NextBelow(i)), i);
  }
}

void CaterpillarEdges(int spine, int legs, const EdgeSink& sink) {
  for (int i = 0; i + 1 < spine; ++i) sink(i, i + 1);
  int next = spine;
  for (int i = 0; i < spine; ++i) {
    for (int l = 0; l < legs; ++l) sink(i, next++);
  }
}

void BinaryEdges(int n, const EdgeSink& sink) {
  for (int i = 1; i < n; ++i) sink((i - 1) / 2, i);
}

// Collects a streamed emitter into the eager Graph the builders return.
template <typename Emitter>
Graph CollectTree(int n, Emitter&& emitter) {
  std::vector<std::pair<int, int>> edges;
  edges.reserve(std::max(0, n - 1));
  emitter([&](int u, int v) { edges.emplace_back(u, v); });
  return Graph::FromEdges(n, std::move(edges));
}

}  // namespace

Graph Path(int n) {
  return CollectTree(n, [&](const EdgeSink& s) { PathEdges(n, s); });
}

Graph Star(int n) {
  return CollectTree(n, [&](const EdgeSink& s) { StarEdges(n, s); });
}

Graph BalancedRegularTree(int n, int delta) {
  return CollectTree(n,
                     [&](const EdgeSink& s) { BalancedEdges(n, delta, s); });
}

Graph UniformRandomTree(int n, uint64_t seed) {
  const int nodes = n <= 2 ? std::max(n, 0) : n;
  return CollectTree(nodes,
                     [&](const EdgeSink& s) { UniformEdges(n, seed, s); });
}

Graph RandomRecursiveTree(int n, uint64_t seed) {
  return CollectTree(n,
                     [&](const EdgeSink& s) { RecursiveEdges(n, seed, s); });
}

Graph BoundedDegreeRandomTree(int n, int max_degree, uint64_t seed) {
  if (max_degree < 2) throw std::invalid_argument("max_degree must be >= 2");
  Rng rng(seed);
  std::vector<std::pair<int, int>> edges;
  edges.reserve(std::max(0, n - 1));
  std::vector<int> degree(n, 0);
  // `open` holds nodes with remaining capacity; sample and lazily evict.
  std::vector<int> open = {0};
  for (int i = 1; i < n; ++i) {
    int parent = -1;
    while (true) {
      size_t idx = rng.NextBelow(open.size());
      parent = open[idx];
      if (degree[parent] < max_degree) break;
      open[idx] = open.back();
      open.pop_back();
      assert(!open.empty());
    }
    edges.emplace_back(parent, i);
    ++degree[parent];
    degree[i] = 1;
    if (degree[i] < max_degree) open.push_back(i);
  }
  return Graph::FromEdges(n, std::move(edges));
}

Graph Caterpillar(int spine, int legs) {
  int n = spine * (legs + 1);
  return CollectTree(
      n, [&](const EdgeSink& s) { CaterpillarEdges(spine, legs, s); });
}

Graph Spider(int legs, int leg_len) {
  int n = 1 + legs * leg_len;
  std::vector<std::pair<int, int>> edges;
  edges.reserve(std::max(0, n - 1));
  int next = 1;
  for (int l = 0; l < legs; ++l) {
    int prev = 0;
    for (int i = 0; i < leg_len; ++i) {
      edges.emplace_back(prev, next);
      prev = next++;
    }
  }
  return Graph::FromEdges(n, std::move(edges));
}

Graph CompleteBinaryTree(int n) {
  return CollectTree(n, [&](const EdgeSink& s) { BinaryEdges(n, s); });
}

Graph Grid(int rows, int cols) {
  auto id = [cols](int r, int c) { return r * cols + c; };
  std::vector<std::pair<int, int>> edges;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.emplace_back(id(r, c), id(r, c + 1));
      if (r + 1 < rows) edges.emplace_back(id(r, c), id(r + 1, c));
    }
  }
  return Graph::FromEdges(rows * cols, std::move(edges));
}

Graph TriangulatedGrid(int rows, int cols) {
  auto id = [cols](int r, int c) { return r * cols + c; };
  std::vector<std::pair<int, int>> edges;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.emplace_back(id(r, c), id(r, c + 1));
      if (r + 1 < rows) edges.emplace_back(id(r, c), id(r + 1, c));
      if (r + 1 < rows && c + 1 < cols) {
        edges.emplace_back(id(r, c), id(r + 1, c + 1));
      }
    }
  }
  return Graph::FromEdges(rows * cols, std::move(edges));
}

std::vector<Graph> ForestUnionParts(int n, int a, uint64_t seed) {
  std::vector<Graph> parts;
  parts.reserve(a);
  for (int f = 0; f < a; ++f) {
    parts.push_back(UniformRandomTree(n, seed * 1000003ULL + f));
  }
  return parts;
}

Graph ForestUnion(int n, int a, uint64_t seed) {
  std::set<std::pair<int, int>> edge_set;
  for (const Graph& tree : ForestUnionParts(n, a, seed)) {
    for (int e = 0; e < tree.NumEdges(); ++e) {
      edge_set.insert(tree.Endpoints(e));
    }
  }
  std::vector<std::pair<int, int>> edges(edge_set.begin(), edge_set.end());
  return Graph::FromEdges(n, std::move(edges));
}

Graph StarUnion(int n, int a, uint64_t seed) {
  Rng rng(seed);
  std::set<std::pair<int, int>> edge_set;
  std::set<int> centers;
  while (static_cast<int>(centers.size()) < a) {
    centers.insert(static_cast<int>(rng.NextBelow(n)));
  }
  for (int c : centers) {
    for (int v = 0; v < n; ++v) {
      if (v == c) continue;
      edge_set.insert({std::min(v, c), std::max(v, c)});
    }
  }
  std::vector<std::pair<int, int>> edges(edge_set.begin(), edge_set.end());
  return Graph::FromEdges(n, std::move(edges));
}

Graph HubbedForest(int n, int a, uint64_t seed) {
  Rng rng(seed);
  std::set<std::pair<int, int>> edge_set;
  // Forest 1: a random recursive tree as connectivity backbone.
  {
    Graph tree = RandomRecursiveTree(n, seed + 1);
    for (int e = 0; e < tree.NumEdges(); ++e) {
      edge_set.insert(tree.Endpoints(e));
    }
  }
  // Forests 2..a: stars from a hub to ~n/2 random nodes (each a forest).
  for (int f = 1; f < a; ++f) {
    int hub = static_cast<int>(rng.NextBelow(n));
    for (int i = 0; i < n / 2; ++i) {
      int v = static_cast<int>(rng.NextBelow(n));
      if (v == hub) continue;
      edge_set.insert({std::min(v, hub), std::max(v, hub)});
    }
  }
  std::vector<std::pair<int, int>> edges(edge_set.begin(), edge_set.end());
  return Graph::FromEdges(n, std::move(edges));
}

Graph MakeTree(TreeFamily family, int n, uint64_t seed) {
  switch (family) {
    case TreeFamily::kPath:
      return Path(n);
    case TreeFamily::kStar:
      return Star(n);
    case TreeFamily::kBalanced3:
      return BalancedRegularTree(n, 3);
    case TreeFamily::kBalanced8:
      return BalancedRegularTree(n, 8);
    case TreeFamily::kUniform:
      return UniformRandomTree(n, seed);
    case TreeFamily::kRecursive:
      return RandomRecursiveTree(n, seed);
    case TreeFamily::kCaterpillar: {
      int spine = std::max(1, n / 4);
      Graph g = Caterpillar(spine, 3);
      return g;
    }
    case TreeFamily::kBinary:
      return CompleteBinaryTree(n);
  }
  throw std::invalid_argument("unknown family");
}

std::string TreeFamilyName(TreeFamily family) {
  switch (family) {
    case TreeFamily::kPath:
      return "path";
    case TreeFamily::kStar:
      return "star";
    case TreeFamily::kBalanced3:
      return "balanced3";
    case TreeFamily::kBalanced8:
      return "balanced8";
    case TreeFamily::kUniform:
      return "uniform";
    case TreeFamily::kRecursive:
      return "recursive";
    case TreeFamily::kCaterpillar:
      return "caterpillar";
    case TreeFamily::kBinary:
      return "binary";
  }
  return "?";
}

std::vector<TreeFamily> AllTreeFamilies() {
  return {TreeFamily::kPath,      TreeFamily::kStar,
          TreeFamily::kBalanced3, TreeFamily::kBalanced8,
          TreeFamily::kUniform,   TreeFamily::kRecursive,
          TreeFamily::kCaterpillar, TreeFamily::kBinary};
}

int MakeTreeStreamed(TreeFamily family, int n, uint64_t seed,
                     const EdgeSink& sink) {
  switch (family) {
    case TreeFamily::kPath:
      PathEdges(n, sink);
      return n;
    case TreeFamily::kStar:
      StarEdges(n, sink);
      return n;
    case TreeFamily::kBalanced3:
      BalancedEdges(n, 3, sink);
      return n;
    case TreeFamily::kBalanced8:
      BalancedEdges(n, 8, sink);
      return n;
    case TreeFamily::kUniform:
      UniformEdges(n, seed, sink);
      return n <= 2 ? std::max(n, 0) : n;
    case TreeFamily::kRecursive:
      RecursiveEdges(n, seed, sink);
      return n;
    case TreeFamily::kCaterpillar: {
      const int spine = std::max(1, n / 4);
      CaterpillarEdges(spine, 3, sink);
      return spine * 4;
    }
    case TreeFamily::kBinary:
      BinaryEdges(n, sink);
      return n;
  }
  throw std::invalid_argument("unknown family");
}

void ForestUnionStreamed(int n, int a, uint64_t seed, const EdgeSink& sink) {
  // Same per-tree seeds as ForestUnionParts; min-first normalization makes
  // the emitted multiset's support exactly ForestUnion's edge set.
  for (int f = 0; f < a; ++f) {
    UniformEdges(n, seed * 1000003ULL + f, [&](int u, int v) {
      sink(std::min(u, v), std::max(u, v));
    });
  }
}

}  // namespace treelocal
