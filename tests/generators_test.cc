#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/graph/algorithms.h"
#include "src/graph/generators.h"
#include "src/support/digest.h"
#include "src/support/rng.h"

namespace treelocal {
namespace {

TEST(GeneratorsTest, PathShape) {
  Graph g = Path(10);
  EXPECT_TRUE(IsTree(g));
  EXPECT_EQ(g.MaxDegree(), 2);
  int leaves = 0;
  for (int v = 0; v < 10; ++v) {
    if (g.Degree(v) == 1) ++leaves;
  }
  EXPECT_EQ(leaves, 2);
}

TEST(GeneratorsTest, PathTiny) {
  EXPECT_EQ(Path(1).NumNodes(), 1);
  EXPECT_EQ(Path(1).NumEdges(), 0);
  EXPECT_EQ(Path(2).NumEdges(), 1);
}

TEST(GeneratorsTest, StarShape) {
  Graph g = Star(12);
  EXPECT_TRUE(IsTree(g));
  EXPECT_EQ(g.MaxDegree(), 11);
  EXPECT_EQ(g.Degree(0), 11);
}

TEST(GeneratorsTest, BalancedRegularTreeDegrees) {
  Graph g = BalancedRegularTree(40, 3);
  EXPECT_TRUE(IsTree(g));
  EXPECT_LE(g.MaxDegree(), 3);
  // Internal nodes (away from the boundary layer) have degree exactly 3.
  EXPECT_EQ(g.Degree(0), 3);
}

TEST(GeneratorsTest, BalancedRegularTreeIsBalanced) {
  // 1 + 4 + 4*3 = 17 nodes: a full 2-level Delta=4 tree.
  Graph g = BalancedRegularTree(17, 4);
  EXPECT_TRUE(IsTree(g));
  auto dist = BfsDistances(g, 0);
  for (int v = 0; v < g.NumNodes(); ++v) {
    if (g.Degree(v) == 1) {
      EXPECT_EQ(dist[v], 2) << "leaf " << v;
    }
  }
}

TEST(GeneratorsTest, UniformRandomTreeIsTree) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Graph g = UniformRandomTree(200, seed);
    EXPECT_TRUE(IsTree(g)) << "seed " << seed;
  }
}

TEST(GeneratorsTest, UniformRandomTreeDeterministic) {
  Graph a = UniformRandomTree(100, 7);
  Graph b = UniformRandomTree(100, 7);
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  for (int e = 0; e < a.NumEdges(); ++e) {
    EXPECT_EQ(a.Endpoints(e), b.Endpoints(e));
  }
}

using EdgeList = std::vector<std::pair<int, int>>;

// The textbook Pruefer decode: repeatedly pop the smallest leaf of an
// ordered leaf set. The generator's linear-time decode must emit exactly
// this sequence, edge for edge and in the same orientation.
EdgeList ReferenceUniformEdges(int n, uint64_t seed) {
  EdgeList edges;
  if (n <= 2) {
    for (int i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
    return edges;
  }
  Rng rng(seed);
  std::vector<int> prufer(n - 2);
  for (auto& x : prufer) x = static_cast<int>(rng.NextBelow(n));
  std::vector<int> degree(n, 1);
  for (int x : prufer) ++degree[x];
  std::set<int> leaves;
  for (int v = 0; v < n; ++v) {
    if (degree[v] == 1) leaves.insert(v);
  }
  for (int x : prufer) {
    edges.emplace_back(*leaves.begin(), x);
    leaves.erase(leaves.begin());
    if (--degree[x] == 1) leaves.insert(x);
  }
  edges.emplace_back(*leaves.begin(), *std::next(leaves.begin()));
  return edges;
}

EdgeList StreamedUniformEdges(int n, uint64_t seed) {
  EdgeList edges;
  MakeTreeStreamed(TreeFamily::kUniform, n, seed,
                   [&](int u, int v) { edges.emplace_back(u, v); });
  return edges;
}

TEST(GeneratorsTest, LinearPrueferDecodeMatchesLeafSetReference) {
  for (int n = 0; n <= 300; ++n) {
    for (uint64_t seed = 1; seed <= 40; ++seed) {
      ASSERT_EQ(StreamedUniformEdges(n, seed), ReferenceUniformEdges(n, seed))
          << "n=" << n << " seed=" << seed;
    }
  }
  for (uint64_t seed : {1u, 7u}) {
    EXPECT_EQ(StreamedUniformEdges(1 << 16, seed),
              ReferenceUniformEdges(1 << 16, seed))
        << "seed=" << seed;
  }
}

// Any exact seen-set gives the same accept/reject sequence; the reference
// uses a node-based one.
std::vector<int64_t> ReferenceDistinctIds(int n, uint64_t seed,
                                          int64_t space) {
  Rng rng(seed);
  std::unordered_set<int64_t> seen;
  std::vector<int64_t> ids;
  while (static_cast<int>(ids.size()) < n) {
    const int64_t candidate = rng.NextInRange(1, space);
    if (seen.insert(candidate).second) ids.push_back(candidate);
  }
  return ids;
}

TEST(GeneratorsTest, DistinctIdsMatchesSetReference) {
  for (int n : {0, 1, 2, 3, 5, 17, 64, 100, 1000}) {
    for (uint64_t seed : {1u, 2u, 3u, 99u}) {
      // space == n draws a permutation of 1..n (every late draw collides);
      // space == n + 1 leaves exactly one value out.
      for (int64_t space : {static_cast<int64_t>(n), int64_t{n} + 1,
                            int64_t{2} * n + 3, int64_t{1} << 40}) {
        if (space < 1) continue;  // no ID space to draw from
        const auto ids = DistinctIds(n, seed, space);
        ASSERT_EQ(ids, ReferenceDistinctIds(n, seed, space))
            << "n=" << n << " seed=" << seed << " space=" << space;
        for (int64_t id : ids) {
          ASSERT_GE(id, 1);
          ASSERT_LE(id, space);
        }
      }
    }
  }
  EXPECT_TRUE(DistinctIds(0, 5, 1).empty());
  EXPECT_EQ(DistinctIds(1, 5, 1), std::vector<int64_t>{1});
  for (int n : {2, 50, 4096}) {
    EXPECT_EQ(DefaultIds(n, 11),
              ReferenceDistinctIds(n, 11, int64_t{n} * n * n))
        << "n=" << n;
  }
}

template <typename T>
uint64_t DigestOf(const std::vector<T>& v) {
  return support::Fnv1a64(v.data(), v.size() * sizeof(T));
}

// Recorded before the linear-time Pruefer decode and the flat ID seen-set
// replaced their set-based versions: the edge lists and ID vectors every
// golden digest downstream starts from.
TEST(GeneratorsTest, UniformTreeAndDefaultIdsPinned) {
  struct Pin {
    uint64_t seed;
    uint64_t edges;
    uint64_t ids;
  };
  const Pin pins[] = {{1, 0xd9096cff35ae827full, 0xe588719831091ff3ull},
                      {7, 0xd044864a55c0481dull, 0xf7e9f55e0446bedfull}};
  for (const Pin& pin : pins) {
    const Graph g = UniformRandomTree(1 << 16, pin.seed);
    std::vector<int32_t> flat;
    for (int e = 0; e < g.NumEdges(); ++e) {
      const auto [u, v] = g.Endpoints(e);
      flat.push_back(u);
      flat.push_back(v);
    }
    EXPECT_EQ(DigestOf(flat), pin.edges) << "seed " << pin.seed;
    EXPECT_EQ(DigestOf(DefaultIds(1 << 16, pin.seed)), pin.ids)
        << "seed " << pin.seed;
  }
}

TEST(GeneratorsTest, RandomRecursiveTreeIsTree) {
  Graph g = RandomRecursiveTree(500, 11);
  EXPECT_TRUE(IsTree(g));
}

TEST(GeneratorsTest, BoundedDegreeRandomTreeRespectsBound) {
  for (int bound : {2, 3, 5, 8}) {
    Graph g = BoundedDegreeRandomTree(300, bound, 23);
    EXPECT_TRUE(IsTree(g));
    EXPECT_LE(g.MaxDegree(), bound) << "bound " << bound;
  }
}

TEST(GeneratorsTest, CaterpillarShape) {
  Graph g = Caterpillar(5, 3);
  EXPECT_EQ(g.NumNodes(), 20);
  EXPECT_TRUE(IsTree(g));
}

TEST(GeneratorsTest, SpiderShape) {
  Graph g = Spider(4, 6);
  EXPECT_EQ(g.NumNodes(), 25);
  EXPECT_TRUE(IsTree(g));
  EXPECT_EQ(g.Degree(0), 4);
}

TEST(GeneratorsTest, CompleteBinaryTreeShape) {
  Graph g = CompleteBinaryTree(15);
  EXPECT_TRUE(IsTree(g));
  EXPECT_LE(g.MaxDegree(), 3);
  auto dist = BfsDistances(g, 0);
  for (int v = 0; v < 15; ++v) EXPECT_LE(dist[v], 3);
}

TEST(GeneratorsTest, GridShape) {
  Graph g = Grid(4, 5);
  EXPECT_EQ(g.NumNodes(), 20);
  EXPECT_EQ(g.NumEdges(), 4 * 4 + 3 * 5);  // horizontal + vertical
  EXPECT_LE(g.MaxDegree(), 4);
  EXPECT_TRUE(GreedyForestCover(g, 2));  // arboricity <= 2
}

TEST(GeneratorsTest, TriangulatedGridShape) {
  Graph g = TriangulatedGrid(4, 4);
  EXPECT_EQ(g.NumNodes(), 16);
  EXPECT_TRUE(GreedyForestCover(g, 3));  // planar => arboricity <= 3
}

TEST(GeneratorsTest, ForestUnionArboricityBound) {
  for (int a : {1, 2, 3, 5}) {
    Graph g = ForestUnion(150, a, 31);
    EXPECT_LE(g.NumEdges(), a * (g.NumNodes() - 1));
    // Certificate: every union edge appears in one of the `a` trees, and
    // each tree is a forest — so the arboricity is at most a.
    auto parts = ForestUnionParts(150, a, 31);
    ASSERT_EQ(parts.size(), static_cast<size_t>(a));
    std::set<std::pair<int, int>> covered;
    for (const Graph& part : parts) {
      EXPECT_TRUE(IsForest(part));
      for (int e = 0; e < part.NumEdges(); ++e) {
        covered.insert(part.Endpoints(e));
      }
    }
    for (int e = 0; e < g.NumEdges(); ++e) {
      EXPECT_TRUE(covered.count(g.Endpoints(e))) << "a=" << a;
    }
  }
}

TEST(GeneratorsTest, ForestUnionOneIsTree) {
  Graph g = ForestUnion(100, 1, 5);
  EXPECT_TRUE(IsTree(g));
}

class TreeFamilyTest : public ::testing::TestWithParam<TreeFamily> {};

TEST_P(TreeFamilyTest, ProducesAConnectedTree) {
  for (int n : {2, 17, 64, 301}) {
    Graph g = MakeTree(GetParam(), n, 42);
    EXPECT_TRUE(IsTree(g))
        << TreeFamilyName(GetParam()) << " n=" << n;
    EXPECT_GE(g.NumNodes(), n / 2);  // families may round the size
  }
}

TEST_P(TreeFamilyTest, HasAName) {
  EXPECT_NE(TreeFamilyName(GetParam()), "?");
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, TreeFamilyTest,
                         ::testing::ValuesIn(AllTreeFamilies()),
                         [](const auto& info) {
                           return TreeFamilyName(info.param);
                         });

}  // namespace
}  // namespace treelocal
