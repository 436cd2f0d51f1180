#include <gtest/gtest.h>

#include <vector>

#include "src/graph/generators.h"
#include "src/support/rng.h"
#include "src/problems/coloring.h"
#include "src/problems/edge_coloring.h"
#include "src/problems/matching.h"
#include "src/problems/mis.h"

namespace treelocal {
namespace {

// ---------- MIS configuration predicates ----------

TEST(MisConfigTest, NodeConfigs) {
  MisProblem mis;
  using L = std::vector<Label>;
  EXPECT_TRUE(mis.NodeConfigOk(L{}));
  EXPECT_TRUE(mis.NodeConfigOk(L{MisProblem::kM}));
  EXPECT_TRUE(mis.NodeConfigOk(L{MisProblem::kM, MisProblem::kM}));
  EXPECT_TRUE(mis.NodeConfigOk(L{MisProblem::kP}));
  EXPECT_TRUE(mis.NodeConfigOk(L{MisProblem::kP, MisProblem::kU}));
  EXPECT_TRUE(mis.NodeConfigOk(L{MisProblem::kP, MisProblem::kP}));
  // No pointer: not covered.
  EXPECT_FALSE(mis.NodeConfigOk(L{MisProblem::kU}));
  EXPECT_FALSE(mis.NodeConfigOk(L{MisProblem::kU, MisProblem::kU}));
  // Mixed M with non-M: incoherent node state.
  EXPECT_FALSE(mis.NodeConfigOk(L{MisProblem::kM, MisProblem::kU}));
  EXPECT_FALSE(mis.NodeConfigOk(L{MisProblem::kM, MisProblem::kP}));
  // Unknown label.
  EXPECT_FALSE(mis.NodeConfigOk(L{77}));
}

TEST(MisConfigTest, EdgeConfigs) {
  MisProblem mis;
  using L = std::vector<Label>;
  EXPECT_TRUE(mis.EdgeConfigOk(L{}, 0));
  EXPECT_TRUE(mis.EdgeConfigOk(L{MisProblem::kM}, 1));
  EXPECT_TRUE(mis.EdgeConfigOk(L{MisProblem::kU}, 1));
  EXPECT_FALSE(mis.EdgeConfigOk(L{MisProblem::kP}, 1));  // dangling pointer
  EXPECT_TRUE(mis.EdgeConfigOk(L{MisProblem::kM, MisProblem::kU}, 2));
  EXPECT_TRUE(mis.EdgeConfigOk(L{MisProblem::kM, MisProblem::kP}, 2));
  EXPECT_TRUE(mis.EdgeConfigOk(L{MisProblem::kU, MisProblem::kU}, 2));
  EXPECT_FALSE(mis.EdgeConfigOk(L{MisProblem::kM, MisProblem::kM}, 2));
  EXPECT_FALSE(mis.EdgeConfigOk(L{MisProblem::kP, MisProblem::kU}, 2));
  EXPECT_FALSE(mis.EdgeConfigOk(L{MisProblem::kP, MisProblem::kP}, 2));
  // Size/rank mismatch.
  EXPECT_FALSE(mis.EdgeConfigOk(L{MisProblem::kM}, 2));
}

TEST(MisTest, SequentialGreedyOnTreeIsValid) {
  Graph g = UniformRandomTree(200, 1);
  MisProblem mis;
  HalfEdgeLabeling h(g);
  std::vector<int> order(g.NumNodes());
  for (int v = 0; v < g.NumNodes(); ++v) order[v] = v;
  mis.CompleteNodes(g, order, h);
  std::string why;
  EXPECT_TRUE(mis.ValidateGraph(g, h, &why)) << why;
  EXPECT_TRUE(MisProblem::IsMaximalIndependentSet(g, MisProblem::ExtractSet(g, h)));
}

TEST(MisTest, ValidatorRejectsAdjacentMs) {
  Graph g = Path(2);
  MisProblem mis;
  HalfEdgeLabeling h(g);
  h.Set(0, 0, MisProblem::kM);
  h.Set(0, 1, MisProblem::kM);
  EXPECT_FALSE(mis.ValidateGraph(g, h));
}

TEST(MisTest, ValidatorRejectsUncoveredNode) {
  Graph g = Path(2);
  MisProblem mis;
  HalfEdgeLabeling h(g);
  h.Set(0, 0, MisProblem::kU);
  h.Set(0, 1, MisProblem::kU);
  EXPECT_FALSE(mis.ValidateGraph(g, h));
}

// ---------- Coloring ----------

TEST(ColoringConfigTest, NodeConfigs) {
  ColoringProblem delta_mode(ColoringProblem::Mode::kDeltaPlusOne, 3);
  using L = std::vector<Label>;
  EXPECT_TRUE(delta_mode.NodeConfigOk(L{2, 2, 2}));
  EXPECT_FALSE(delta_mode.NodeConfigOk(L{2, 3}));  // inconsistent halves
  EXPECT_FALSE(delta_mode.NodeConfigOk(L{5}));     // > Delta+1
  EXPECT_FALSE(delta_mode.NodeConfigOk(L{0}));     // colors are 1-based
  EXPECT_TRUE(delta_mode.NodeConfigOk(L{4}));      // == Delta+1

  ColoringProblem deg_mode(ColoringProblem::Mode::kDegPlusOne, 0);
  EXPECT_TRUE(deg_mode.NodeConfigOk(L{2}));    // deg 1, bound 2
  EXPECT_FALSE(deg_mode.NodeConfigOk(L{3}));   // deg 1, bound 2
  EXPECT_TRUE(deg_mode.NodeConfigOk(L{3, 3}));  // deg 2, bound 3
}

TEST(ColoringConfigTest, EdgeConfigs) {
  ColoringProblem c(ColoringProblem::Mode::kDeltaPlusOne, 3);
  using L = std::vector<Label>;
  EXPECT_TRUE(c.EdgeConfigOk(L{1, 2}, 2));
  EXPECT_FALSE(c.EdgeConfigOk(L{2, 2}, 2));  // monochromatic
  EXPECT_TRUE(c.EdgeConfigOk(L{7}, 1));
}

TEST(ColoringTest, GreedyProducesProperColoring) {
  Graph g = UniformRandomTree(300, 2);
  ColoringProblem problem(ColoringProblem::Mode::kDegPlusOne, g.MaxDegree());
  HalfEdgeLabeling h(g);
  std::vector<int> order(g.NumNodes());
  for (int v = 0; v < g.NumNodes(); ++v) order[v] = v;
  problem.CompleteNodes(g, order, h);
  std::string why;
  EXPECT_TRUE(problem.ValidateGraph(g, h, &why)) << why;
  EXPECT_TRUE(problem.IsProperlyColored(g, ColoringProblem::ExtractColors(g, h)));
}

TEST(ColoringTest, DeltaPlusOneRespectsGlobalBound) {
  Graph g = Star(30);
  ColoringProblem problem(ColoringProblem::Mode::kDeltaPlusOne, g.MaxDegree());
  HalfEdgeLabeling h(g);
  std::vector<int> order(g.NumNodes());
  for (int v = 0; v < g.NumNodes(); ++v) order[v] = v;
  problem.CompleteNodes(g, order, h);
  auto colors = ColoringProblem::ExtractColors(g, h);
  for (int v = 0; v < g.NumNodes(); ++v) {
    EXPECT_LE(colors[v], g.MaxDegree() + 1);
  }
  EXPECT_TRUE(problem.IsProperlyColored(g, colors));
}

// ---------- Edge coloring (Section 5.1 encoding) ----------

TEST(EdgeColoringConfigTest, PackUnpack) {
  Label l = EdgeColoringProblem::Pack(5, 9);
  EXPECT_TRUE(EdgeColoringProblem::IsPair(l));
  EXPECT_EQ(EdgeColoringProblem::DegreePart(l), 5);
  EXPECT_EQ(EdgeColoringProblem::ColorPart(l), 9);
  EXPECT_FALSE(EdgeColoringProblem::IsPair(EdgeColoringProblem::kD));
}

TEST(EdgeColoringConfigTest, NodeConfigs) {
  EdgeColoringProblem p(EdgeColoringProblem::Mode::kEdgeDegreePlusOne, 0);
  using L = std::vector<Label>;
  auto pair = [](int64_t a, int64_t b) {
    return EdgeColoringProblem::Pack(a, b);
  };
  // Two colored edges at the node: degree parts <= 2, distinct colors.
  EXPECT_TRUE(p.NodeConfigOk(L{pair(2, 1), pair(1, 3)}));
  EXPECT_FALSE(p.NodeConfigOk(L{pair(3, 1), pair(1, 3)}));  // a > p
  EXPECT_FALSE(p.NodeConfigOk(L{pair(1, 2), pair(1, 2)}));  // repeated color
  EXPECT_TRUE(p.NodeConfigOk(L{pair(1, 1), EdgeColoringProblem::kD}));
  EXPECT_TRUE(p.NodeConfigOk(L{}));
}

TEST(EdgeColoringConfigTest, EdgeConfigs) {
  EdgeColoringProblem p(EdgeColoringProblem::Mode::kEdgeDegreePlusOne, 0);
  using L = std::vector<Label>;
  auto pair = [](int64_t a, int64_t b) {
    return EdgeColoringProblem::Pack(a, b);
  };
  // a1 + a2 >= b + 1.
  EXPECT_TRUE(p.EdgeConfigOk(L{pair(2, 3), pair(2, 3)}, 2));
  EXPECT_FALSE(p.EdgeConfigOk(L{pair(1, 3), pair(1, 3)}, 2));  // 2 < 4
  EXPECT_FALSE(p.EdgeConfigOk(L{pair(2, 3), pair(2, 4)}, 2));  // colors differ
  EXPECT_TRUE(p.EdgeConfigOk(L{EdgeColoringProblem::kD}, 1));
  EXPECT_FALSE(p.EdgeConfigOk(L{pair(1, 1)}, 1));
  EXPECT_TRUE(p.EdgeConfigOk(L{}, 0));
}

TEST(EdgeColoringConfigTest, NodeConfigRejectionsPinned) {
  using L = std::vector<Label>;
  auto pair = [](int64_t a, int64_t b) {
    return EdgeColoringProblem::Pack(a, b);
  };
  const Label kD = EdgeColoringProblem::kD;
  EdgeColoringProblem deg(EdgeColoringProblem::Mode::kEdgeDegreePlusOne, 3);
  EdgeColoringProblem two(EdgeColoringProblem::Mode::kTwoDeltaMinusOne, 3);
  for (const EdgeColoringProblem* p : {&deg, &two}) {
    // A duplicate color part, adjacent or not, with or without D's between.
    EXPECT_FALSE(p->NodeConfigOk(L{pair(1, 2), pair(2, 2)}));
    EXPECT_FALSE(p->NodeConfigOk(L{pair(1, 3), kD, pair(1, 1), pair(2, 3)}));
    // A non-pair label other than D.
    EXPECT_FALSE(p->NodeConfigOk(L{pair(1, 1), -2}));
    EXPECT_FALSE(p->NodeConfigOk(L{kD, int64_t{-1} << 40}));
    // Zero parts.
    EXPECT_FALSE(p->NodeConfigOk(L{pair(0, 1)}));
    EXPECT_FALSE(p->NodeConfigOk(L{pair(1, 0)}));
    EXPECT_TRUE(p->NodeConfigOk(L{pair(1, 3), kD, pair(1, 1), pair(2, 2)}));
  }
  // A degree part > p (p counts pairs, not D's) rejects only in the
  // edge-degree mode.
  EXPECT_FALSE(deg.NodeConfigOk(L{pair(2, 1), kD}));
  EXPECT_FALSE(deg.NodeConfigOk(L{pair(1, 1), pair(3, 2)}));
  EXPECT_TRUE(two.NodeConfigOk(L{pair(2, 1), kD}));
  // A color part > 2*Delta-1 rejects only in the (2Delta-1) mode.
  EXPECT_FALSE(two.NodeConfigOk(L{pair(1, 6)}));
  EXPECT_TRUE(two.NodeConfigOk(L{pair(1, 5)}));
  EXPECT_TRUE(deg.NodeConfigOk(L{pair(1, 6)}));
}

// Each node-level rejection, reached through ValidateGraph on a labeling
// whose edge configurations are all legal, and the raw-color oracle.
TEST(EdgeColoringTest, ValidatorRejectionsPinned) {
  const Graph g = Star(4);  // center 0, leaves 1..3, Delta = 3
  auto pair = [](int64_t a, int64_t b) {
    return EdgeColoringProblem::Pack(a, b);
  };
  auto colored = [&](int64_t b1, int64_t b2, int64_t b3) {
    HalfEdgeLabeling h(g);
    const int64_t b[3] = {b1, b2, b3};
    for (int leaf = 1; leaf <= 3; ++leaf) {
      const int e = g.EdgeBetween(0, leaf);
      h.Set(e, 0, pair(1, b[leaf - 1]));
      h.Set(e, leaf, pair(1, b[leaf - 1]));
    }
    return h;
  };
  EdgeColoringProblem deg(EdgeColoringProblem::Mode::kEdgeDegreePlusOne,
                          g.MaxDegree());
  EdgeColoringProblem two(EdgeColoringProblem::Mode::kTwoDeltaMinusOne,
                          g.MaxDegree());
  std::string why;
  EXPECT_TRUE(two.ValidateGraph(g, colored(1, 2, 3), &why)) << why;
  EXPECT_TRUE(why.empty());

  // Duplicate color at the center.
  EXPECT_FALSE(two.ValidateGraph(g, colored(1, 1, 3), &why));
  EXPECT_EQ(why.rfind("node 0 config invalid: {", 0), 0u) << why;

  // Color 6 > 2*Delta-1 = 5 at every endpoint; the center is checked first.
  EXPECT_FALSE(two.ValidateGraph(g, colored(1, 2, 6), &why));
  EXPECT_EQ(why.rfind("node 0 config invalid", 0), 0u) << why;

  // Degree part 2 > p = 1 at leaf 2; every edge still satisfies
  // a1 + a2 >= b + 1, and the center's parts are all <= 3.
  HalfEdgeLabeling h = colored(1, 2, 3);
  h.Set(g.EdgeBetween(0, 2), 0, pair(3, 2));
  h.Set(g.EdgeBetween(0, 2), 2, pair(2, 2));
  h.Set(g.EdgeBetween(0, 3), 0, pair(3, 3));
  EXPECT_TRUE(two.ValidateGraph(g, h, &why)) << why;
  EXPECT_FALSE(deg.ValidateGraph(g, h, &why));
  EXPECT_EQ(why, "node 2 config invalid: {(2,2)}");

  // A non-pair label is caught at its edge first.
  h = colored(1, 2, 3);
  h.Set(g.EdgeBetween(0, 3), 3, -2);
  EXPECT_FALSE(two.ValidateGraph(g, h, &why));
  EXPECT_EQ(why.rfind("edge ", 0), 0u) << why;

  // The raw-color oracle.
  std::vector<int64_t> colors(g.NumEdges());
  for (int leaf = 1; leaf <= 3; ++leaf) {
    colors[g.EdgeBetween(0, leaf)] = leaf;
  }
  EXPECT_TRUE(two.IsProperEdgeColoring(g, colors));
  EXPECT_TRUE(deg.IsProperEdgeColoring(g, colors));
  colors[g.EdgeBetween(0, 3)] = 1;  // duplicate at the center
  EXPECT_FALSE(two.IsProperEdgeColoring(g, colors));
  EXPECT_FALSE(deg.IsProperEdgeColoring(g, colors));
  colors[g.EdgeBetween(0, 3)] = 6;  // > 2*Delta-1 and > edge-degree+1
  EXPECT_FALSE(two.IsProperEdgeColoring(g, colors));
  EXPECT_FALSE(deg.IsProperEdgeColoring(g, colors));
  colors[g.EdgeBetween(0, 3)] = 0;  // uncolored
  EXPECT_FALSE(two.IsProperEdgeColoring(g, colors));
  // A duplicate on a longer path: edges 0-1 and 2-3 may share, 1-2 not.
  const Graph path = Path(4);
  std::vector<int64_t> pc(path.NumEdges());
  pc[path.EdgeBetween(0, 1)] = 1;
  pc[path.EdgeBetween(1, 2)] = 2;
  pc[path.EdgeBetween(2, 3)] = 1;
  EXPECT_TRUE(deg.IsProperEdgeColoring(path, pc));
  pc[path.EdgeBetween(1, 2)] = 1;
  EXPECT_FALSE(deg.IsProperEdgeColoring(path, pc));
}

// The node-rejection message lists the node's labels in port order.
TEST(ColoringTest, ValidatorNodeMessagePinned) {
  const Graph g = Star(4);
  ColoringProblem problem(ColoringProblem::Mode::kDeltaPlusOne,
                          g.MaxDegree());
  HalfEdgeLabeling h(g);
  for (int leaf = 1; leaf <= 3; ++leaf) {
    const int e = g.EdgeBetween(0, leaf);
    h.Set(e, 0, leaf == 2 ? 2 : 1);
    h.Set(e, leaf, 3);
  }
  std::string why;
  EXPECT_FALSE(problem.ValidateGraph(g, h, &why));
  EXPECT_EQ(why, "node 0 config invalid: {1,2,1}");
  h.Set(g.EdgeBetween(0, 2), 0, 1);
  EXPECT_TRUE(problem.ValidateGraph(g, h, &why)) << why;
}

TEST(EdgeColoringTest, Lemma16ProcessOnTree) {
  Graph g = UniformRandomTree(300, 3);
  EdgeColoringProblem problem(EdgeColoringProblem::Mode::kEdgeDegreePlusOne,
                              g.MaxDegree());
  HalfEdgeLabeling h(g);
  std::vector<int> order(g.NumEdges());
  for (int e = 0; e < g.NumEdges(); ++e) order[e] = e;
  problem.CompleteEdges(g, order, h);
  std::string why;
  EXPECT_TRUE(problem.ValidateGraph(g, h, &why)) << why;
  auto colors = EdgeColoringProblem::ExtractColors(g, h);
  EXPECT_TRUE(problem.IsProperEdgeColoring(g, colors));
  // The headline bound: color(e) <= edge-degree(e) + 1.
  for (int e = 0; e < g.NumEdges(); ++e) {
    EXPECT_LE(colors[e], g.EdgeDegree(e) + 1);
  }
}

TEST(EdgeColoringTest, TwoDeltaMinusOneModeOnGrid) {
  Graph g = Grid(10, 10);
  EdgeColoringProblem problem(EdgeColoringProblem::Mode::kTwoDeltaMinusOne,
                              g.MaxDegree());
  HalfEdgeLabeling h(g);
  std::vector<int> order(g.NumEdges());
  for (int e = 0; e < g.NumEdges(); ++e) order[e] = e;
  problem.CompleteEdges(g, order, h);
  std::string why;
  EXPECT_TRUE(problem.ValidateGraph(g, h, &why)) << why;
  auto colors = EdgeColoringProblem::ExtractColors(g, h);
  for (int e = 0; e < g.NumEdges(); ++e) {
    EXPECT_LE(colors[e], 2 * g.MaxDegree() - 1);
  }
}

// ---------- Matching (Section 5.2 encoding) ----------

TEST(MatchingConfigTest, NodeConfigs) {
  MatchingProblem p;
  using L = std::vector<Label>;
  EXPECT_TRUE(p.NodeConfigOk(L{MatchingProblem::kM, MatchingProblem::kP}));
  EXPECT_TRUE(p.NodeConfigOk(L{MatchingProblem::kM, MatchingProblem::kO,
                               MatchingProblem::kD}));
  EXPECT_TRUE(p.NodeConfigOk(L{MatchingProblem::kO, MatchingProblem::kO}));
  EXPECT_TRUE(p.NodeConfigOk(L{}));
  // Two Ms at one node: matched twice.
  EXPECT_FALSE(p.NodeConfigOk(L{MatchingProblem::kM, MatchingProblem::kM}));
  // P without M: untruthful "I am matched".
  EXPECT_FALSE(p.NodeConfigOk(L{MatchingProblem::kP, MatchingProblem::kO}));
}

TEST(MatchingConfigTest, EdgeConfigs) {
  MatchingProblem p;
  using L = std::vector<Label>;
  EXPECT_TRUE(p.EdgeConfigOk(L{MatchingProblem::kM, MatchingProblem::kM}, 2));
  EXPECT_TRUE(p.EdgeConfigOk(L{MatchingProblem::kP, MatchingProblem::kP}, 2));
  EXPECT_TRUE(p.EdgeConfigOk(L{MatchingProblem::kP, MatchingProblem::kO}, 2));
  // {O,O} violates maximality.
  EXPECT_FALSE(p.EdgeConfigOk(L{MatchingProblem::kO, MatchingProblem::kO}, 2));
  EXPECT_FALSE(p.EdgeConfigOk(L{MatchingProblem::kM, MatchingProblem::kP}, 2));
  EXPECT_TRUE(p.EdgeConfigOk(L{MatchingProblem::kD}, 1));
  EXPECT_FALSE(p.EdgeConfigOk(L{MatchingProblem::kM}, 1));
}

TEST(MatchingTest, Lemma17ProcessOnTree) {
  Graph g = UniformRandomTree(300, 4);
  MatchingProblem problem;
  HalfEdgeLabeling h(g);
  std::vector<int> order(g.NumEdges());
  for (int e = 0; e < g.NumEdges(); ++e) order[e] = e;
  problem.CompleteEdges(g, order, h);
  std::string why;
  EXPECT_TRUE(problem.ValidateGraph(g, h, &why)) << why;
  EXPECT_TRUE(MatchingProblem::IsMaximalMatching(
      g, MatchingProblem::ExtractMatching(g, h)));
}

TEST(MatchingTest, ValidatorRejectsNonMaximal) {
  // Single edge labeled {O,O}: a legal matching ({}) but not maximal.
  Graph g = Path(2);
  MatchingProblem p;
  HalfEdgeLabeling h(g);
  h.Set(0, 0, MatchingProblem::kO);
  h.Set(0, 1, MatchingProblem::kO);
  EXPECT_FALSE(p.ValidateGraph(g, h));
}

TEST(MatchingTest, ValidatorRejectsDoubleMatching) {
  // Path 0-1-2 with both edges matched: node 1 has two Ms.
  Graph g = Path(3);
  MatchingProblem p;
  HalfEdgeLabeling h(g);
  for (int e = 0; e < 2; ++e) {
    h.SetSlot(e, 0, MatchingProblem::kM);
    h.SetSlot(e, 1, MatchingProblem::kM);
  }
  EXPECT_FALSE(p.ValidateGraph(g, h));
}

// ---------- Cross-problem: sequential order robustness ----------

class OrderRobustnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OrderRobustnessTest, AnyAdversarialOrderWorks) {
  // Class P1/P2 demands the greedy work under adversarial processing order;
  // shuffle orders with different seeds.
  uint64_t seed = GetParam();
  Graph g = UniformRandomTree(150, seed);
  Rng rng(seed * 13 + 1);

  {
    MisProblem mis;
    HalfEdgeLabeling h(g);
    std::vector<int> order(g.NumNodes());
    for (int v = 0; v < g.NumNodes(); ++v) order[v] = v;
    rng.Shuffle(order);
    mis.CompleteNodes(g, order, h);
    EXPECT_TRUE(mis.ValidateGraph(g, h));
  }
  {
    MatchingProblem mm;
    HalfEdgeLabeling h(g);
    std::vector<int> order(g.NumEdges());
    for (int e = 0; e < g.NumEdges(); ++e) order[e] = e;
    rng.Shuffle(order);
    mm.CompleteEdges(g, order, h);
    EXPECT_TRUE(mm.ValidateGraph(g, h));
  }
  {
    EdgeColoringProblem ec(EdgeColoringProblem::Mode::kEdgeDegreePlusOne,
                           g.MaxDegree());
    HalfEdgeLabeling h(g);
    std::vector<int> order(g.NumEdges());
    for (int e = 0; e < g.NumEdges(); ++e) order[e] = e;
    rng.Shuffle(order);
    ec.CompleteEdges(g, order, h);
    EXPECT_TRUE(ec.ValidateGraph(g, h));
  }
  {
    ColoringProblem col(ColoringProblem::Mode::kDegPlusOne, g.MaxDegree());
    HalfEdgeLabeling h(g);
    std::vector<int> order(g.NumNodes());
    for (int v = 0; v < g.NumNodes(); ++v) order[v] = v;
    rng.Shuffle(order);
    col.CompleteNodes(g, order, h);
    EXPECT_TRUE(col.ValidateGraph(g, h));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderRobustnessTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace treelocal
