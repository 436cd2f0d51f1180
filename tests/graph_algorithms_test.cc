#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/algorithms.h"
#include "src/graph/generators.h"
#include "src/graph/subgraph.h"
#include "src/support/rng.h"

namespace treelocal {
namespace {

TEST(BfsTest, PathDistances) {
  Graph g = Path(6);
  auto dist = BfsDistances(g, 0);
  for (int v = 0; v < 6; ++v) EXPECT_EQ(dist[v], v);
}

TEST(BfsTest, DisconnectedUnreachable) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {2, 3}});
  auto dist = BfsDistances(g, 0);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[2], -1);
  EXPECT_EQ(dist[3], -1);
}

TEST(ComponentsTest, SingleComponent) {
  int num = 0;
  auto comp = ConnectedComponents(Path(10), &num);
  EXPECT_EQ(num, 1);
  for (int c : comp) EXPECT_EQ(c, 0);
}

TEST(ComponentsTest, MultipleComponents) {
  Graph g = Graph::FromEdges(6, {{0, 1}, {2, 3}});
  int num = 0;
  auto comp = ConnectedComponents(g, &num);
  EXPECT_EQ(num, 4);  // {0,1}, {2,3}, {4}, {5}
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[2]);
}

TEST(ComponentsTest, MaskedComponentsSplitByMask) {
  // Path 0-1-2-3-4 with node 2 masked out: two components.
  Graph g = Path(5);
  std::vector<char> mask = {1, 1, 0, 1, 1};
  int num = 0;
  auto comp = MaskedComponents(g, mask, &num);
  EXPECT_EQ(num, 2);
  EXPECT_EQ(comp[2], -1);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[3]);
}

TEST(ComponentsTest, MaskedTreeComponentDiameters) {
  Graph g = Path(10);
  std::vector<char> mask(10, 1);
  mask[4] = 0;
  int num = 0;
  auto comp = MaskedComponents(g, mask, &num);
  auto diam = MaskedTreeComponentDiameters(g, mask, comp, num);
  ASSERT_EQ(num, 2);
  EXPECT_EQ(diam[comp[0]], 3);  // nodes 0..3
  EXPECT_EQ(diam[comp[9]], 4);  // nodes 5..9
}

TEST(ForestTest, TreeIsForest) {
  EXPECT_TRUE(IsForest(Path(10)));
  EXPECT_TRUE(IsTree(Path(10)));
}

TEST(ForestTest, CycleIsNotForest) {
  Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_FALSE(IsForest(g));
  EXPECT_FALSE(IsTree(g));
}

TEST(ForestTest, DisconnectedForestIsNotTree) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {2, 3}});
  EXPECT_TRUE(IsForest(g));
  EXPECT_FALSE(IsTree(g));
}

TEST(ForestCoverTest, TreeNeedsOneForest) {
  EXPECT_TRUE(GreedyForestCover(UniformRandomTree(100, 3), 1));
}

TEST(ForestCoverTest, TriangleNeedsTwo) {
  Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_FALSE(GreedyForestCover(g, 1));
  EXPECT_TRUE(GreedyForestCover(g, 2));
}

TEST(LeadersTest, LeaderIsMaxKeyNode) {
  Graph g = Path(5);
  std::vector<char> mask(5, 1);
  std::vector<int64_t> key = {10, 50, 20, 40, 30};
  auto leaders = MaskedComponentLeaders(g, mask, key);
  ASSERT_EQ(leaders.size(), 1u);
  EXPECT_EQ(leaders[0].leader, 1);
  EXPECT_EQ(leaders[0].eccentricity, 3);  // node 1 -> node 4
  EXPECT_EQ(leaders[0].nodes.size(), 5u);
}

TEST(LeadersTest, PerComponentLeaders) {
  Graph g = Path(6);
  std::vector<char> mask = {1, 1, 0, 1, 1, 1};
  std::vector<int64_t> key = {1, 2, 3, 4, 5, 6};
  auto leaders = MaskedComponentLeaders(g, mask, key);
  ASSERT_EQ(leaders.size(), 2u);
  // Components {0,1} and {3,4,5}.
  EXPECT_EQ(leaders[0].leader, 1);
  EXPECT_EQ(leaders[1].leader, 5);
  EXPECT_EQ(leaders[1].eccentricity, 2);
}

TEST(LeadersTest, RandomTreeEccentricityWithinDiameter) {
  Graph g = UniformRandomTree(300, 77);
  std::vector<char> mask(300, 1);
  auto ids = DefaultIds(300, 1);
  auto leaders = MaskedComponentLeaders(g, mask, ids);
  ASSERT_EQ(leaders.size(), 1u);
  int num = 0;
  auto comp = MaskedComponents(g, mask, &num);
  auto diam = MaskedTreeComponentDiameters(g, mask, comp, num);
  EXPECT_LE(leaders[0].eccentricity, diam[0]);
  EXPECT_GE(2 * leaders[0].eccentricity + 1, diam[0]);
}


// Differential check of MaskedComponentLeaders and
// MaskedTreeComponentDiameters against a per-component oracle built only
// from InduceByNodes + BfsDistances: components by reachability, leader by
// a scan of the keys, eccentricity from the leader's distances and diameter
// as the all-pairs maximum (not a double BFS).
struct OracleComponent {
  int leader = -1;
  int eccentricity = 0;
  int diameter = 0;
  std::vector<int> nodes;  // ascending host ids
};

std::vector<OracleComponent> Oracle(const Graph& g,
                                    const std::vector<char>& mask,
                                    const std::vector<int64_t>& key) {
  Subgraph sub = InduceByNodes(g, mask);
  const int n = sub.graph.NumNodes();
  std::vector<char> seen(n, 0);
  std::vector<OracleComponent> out;
  // Sub nodes are numbered in ascending host order, so scanning them in
  // order yields components ordered by their lowest host node.
  for (int s = 0; s < n; ++s) {
    if (seen[s]) continue;
    std::vector<int> from_s = BfsDistances(sub.graph, s);
    OracleComponent oc;
    std::vector<int> members;
    for (int u = 0; u < n; ++u) {
      if (from_s[u] < 0) continue;
      seen[u] = 1;
      members.push_back(u);
      const int host = sub.node_to_host[u];
      oc.nodes.push_back(host);
      if (oc.leader < 0 || key[host] > key[oc.leader]) oc.leader = host;
    }
    for (int u : members) {
      std::vector<int> d = BfsDistances(sub.graph, u);
      for (int w : members) oc.diameter = std::max(oc.diameter, d[w]);
      if (sub.node_to_host[u] == oc.leader) {
        for (int w : members) oc.eccentricity = std::max(oc.eccentricity, d[w]);
      }
    }
    out.push_back(std::move(oc));
  }
  return out;
}

void ExpectMatchesOracle(const Graph& g, const std::vector<char>& mask,
                         const std::vector<int64_t>& key,
                         const std::string& what) {
  SCOPED_TRACE(what);
  std::vector<OracleComponent> want = Oracle(g, mask, key);
  std::vector<ComponentLeader> got = MaskedComponentLeaders(g, mask, key);
  int num = 0;
  std::vector<int> comp = MaskedComponents(g, mask, &num);
  std::vector<int> diam = MaskedTreeComponentDiameters(g, mask, comp, num);
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(num, static_cast<int>(want.size()));
  for (size_t c = 0; c < want.size(); ++c) {
    SCOPED_TRACE("component " + std::to_string(c));
    EXPECT_EQ(got[c].leader, want[c].leader);
    EXPECT_EQ(got[c].eccentricity, want[c].eccentricity);
    EXPECT_EQ(got[c].nodes, want[c].nodes);
    EXPECT_EQ(diam[c], want[c].diameter);
    EXPECT_EQ(comp[want[c].nodes.front()], static_cast<int>(c));
  }
}

// Random forest: a random tree with each edge kept with probability 0.8.
Graph RandomForest(int n, uint64_t seed) {
  Graph tree = UniformRandomTree(n, seed);
  Rng rng(seed * 31 + 7);
  std::vector<std::pair<int, int>> edges;
  for (int e = 0; e < tree.NumEdges(); ++e) {
    if (rng.NextBool(0.8)) edges.push_back(tree.Endpoints(e));
  }
  return Graph::FromEdges(n, std::move(edges));
}

TEST(LeadersDifferentialTest, RandomTreesAndForestsWithRandomMasks) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    const int n = 1 + static_cast<int>(rng.NextBelow(120));
    const Graph graphs[] = {UniformRandomTree(n, seed),
                            RandomRecursiveTree(n, seed),
                            RandomForest(n, seed)};
    for (const Graph& g : graphs) {
      for (double density : {0.2, 0.5, 0.8}) {
        std::vector<char> mask(n);
        for (char& m : mask) m = rng.NextBool(density);
        // Keys from a range of 4 values force ties; distinct ids do not.
        std::vector<int64_t> tied(n), distinct = DefaultIds(n, seed);
        for (int64_t& k : tied) k = static_cast<int64_t>(rng.NextBelow(4));
        const std::string what = "seed " + std::to_string(seed) + " n " +
                                 std::to_string(n) + " density " +
                                 std::to_string(density);
        ExpectMatchesOracle(g, mask, tied, what + " tied keys");
        ExpectMatchesOracle(g, mask, distinct, what + " distinct keys");
      }
    }
  }
}

TEST(LeadersDifferentialTest, EdgeCases) {
  const int n = 40;
  Graph tree = UniformRandomTree(n, 5);
  std::vector<int64_t> ids = DefaultIds(n, 5);

  // Empty mask: no components at all.
  std::vector<char> none(n, 0);
  EXPECT_TRUE(MaskedComponentLeaders(tree, none, ids).empty());
  ExpectMatchesOracle(tree, none, ids, "empty mask");

  // Full mask: one component holding every node.
  std::vector<char> all(n, 1);
  ASSERT_EQ(MaskedComponentLeaders(tree, all, ids).size(), 1u);
  ExpectMatchesOracle(tree, all, ids, "full mask");

  // Alternating mask on a path: every component is a singleton.
  Graph path = Path(n);
  std::vector<char> alternating(n);
  for (int v = 0; v < n; ++v) alternating[v] = v % 2 == 0;
  auto singletons = MaskedComponentLeaders(path, alternating, ids);
  ASSERT_EQ(singletons.size(), static_cast<size_t>(n / 2));
  for (size_t c = 0; c < singletons.size(); ++c) {
    EXPECT_EQ(singletons[c].leader, static_cast<int>(2 * c));
    EXPECT_EQ(singletons[c].eccentricity, 0);
  }
  ExpectMatchesOracle(path, alternating, ids, "alternating singletons");

  // Path with the leader at one end: eccentricity is the full length.
  std::vector<int64_t> descending(n);
  for (int v = 0; v < n; ++v) descending[v] = n - v;
  auto ends = MaskedComponentLeaders(path, all, descending);
  ASSERT_EQ(ends.size(), 1u);
  EXPECT_EQ(ends[0].leader, 0);
  EXPECT_EQ(ends[0].eccentricity, n - 1);
  ExpectMatchesOracle(path, all, descending, "path, leader at an end");

  // Star: a leaf leader sees eccentricity 2, the center 1.
  Graph star = Star(n);
  std::vector<int64_t> leaf_high(n, 0);
  leaf_high[n - 1] = 1;
  auto star_leaders = MaskedComponentLeaders(star, all, leaf_high);
  ASSERT_EQ(star_leaders.size(), 1u);
  EXPECT_EQ(star_leaders[0].leader, n - 1);
  EXPECT_EQ(star_leaders[0].eccentricity, 2);
  ExpectMatchesOracle(star, all, leaf_high, "star, leaf leader");
  ExpectMatchesOracle(star, all, ids, "star, distinct keys");

  // Tied keys: the lowest index among the maxima leads.
  std::vector<int64_t> flat(n, 7);
  auto tied = MaskedComponentLeaders(path, all, flat);
  ASSERT_EQ(tied.size(), 1u);
  EXPECT_EQ(tied[0].leader, 0);
  std::vector<int64_t> two_max(n, 0);
  two_max[17] = two_max[9] = two_max[31] = 3;
  EXPECT_EQ(MaskedComponentLeaders(tree, all, two_max)[0].leader, 9);
  ExpectMatchesOracle(tree, all, two_max, "tied maxima");
}

}  // namespace
}  // namespace treelocal
