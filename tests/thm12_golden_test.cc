// Golden pin of Theorem 12 outputs: (Delta+1)-coloring of
// RandomRecursiveTree(2^14, s) for s in {1, 2, 3} and k in {2, 5}, through
// the solo, parallel (T = 2) and batched entry points. The values were
// recorded from the implementation in which MaskedComponentLeaders ran one
// fresh n-sized BFS per rake component; the linear-time gather must
// reproduce them bit for bit (component count, worst eccentricity, gather
// and total rounds, and an Fnv1a64 digest of every half-edge label).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/core/transform_node.h"
#include "src/graph/generators.h"
#include "src/problems/coloring.h"
#include "src/support/digest.h"
#include "src/support/rng.h"

namespace treelocal {
namespace {

struct Golden {
  int k;
  uint64_t seed;
  int num_rake_components;
  int max_rake_component_diameter;
  int rounds_gather;
  int rounds_total;
  uint64_t labeling_digest;
};

constexpr Golden kGolden[] = {
    {2, 1, 4845, 5, 11, 84, 0xc636ea3b417ae720ull},
    {2, 2, 5111, 5, 11, 84, 0xf4ef52994fe7b580ull},
    {2, 3, 5071, 5, 11, 84, 0xaf667dfbd7df2b04ull},
    {5, 1, 2448, 1, 3, 183, 0x59ed6b7000a14247ull},
    {5, 2, 2631, 1, 3, 183, 0x92ac3814560d1b00ull},
    {5, 3, 2438, 1, 3, 183, 0x4607bb637c381bc1ull},
};

constexpr int kN = 1 << 14;

// Fnv1a64 over every half-edge label in (edge, slot) order.
uint64_t LabelingDigest(const Graph& g, const HalfEdgeLabeling& labeling) {
  std::vector<Label> labels;
  labels.reserve(2 * static_cast<size_t>(g.NumEdges()));
  for (int e = 0; e < g.NumEdges(); ++e) {
    labels.push_back(labeling.GetSlot(e, 0));
    labels.push_back(labeling.GetSlot(e, 1));
  }
  return support::Fnv1a64(labels.data(), labels.size() * sizeof(Label));
}

void ExpectGolden(const Graph& tree, const Thm12Result& r, const Golden& want) {
  EXPECT_TRUE(r.valid) << r.why;
  EXPECT_EQ(r.num_rake_components, want.num_rake_components);
  EXPECT_EQ(r.max_rake_component_diameter, want.max_rake_component_diameter);
  EXPECT_EQ(r.rounds_gather, want.rounds_gather);
  EXPECT_EQ(r.rounds_total, want.rounds_total);
  EXPECT_EQ(LabelingDigest(tree, r.labeling), want.labeling_digest);
}

class Thm12GoldenTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    tree_ = RandomRecursiveTree(kN, GetParam());
    ids_ = DefaultIds(kN, GetParam());
    id_space_ = *std::max_element(ids_.begin(), ids_.end()) + 1;
  }

  std::vector<Golden> Rows() const {
    std::vector<Golden> rows;
    for (const Golden& g : kGolden) {
      if (g.seed == GetParam()) rows.push_back(g);
    }
    return rows;
  }

  ColoringProblem Problem() const {
    return ColoringProblem(ColoringProblem::Mode::kDeltaPlusOne,
                           tree_.MaxDegree());
  }

  Graph tree_;
  std::vector<int64_t> ids_;
  int64_t id_space_ = 0;
};

TEST_P(Thm12GoldenTest, Solo) {
  for (const Golden& g : Rows()) {
    SCOPED_TRACE(g.k);
    ExpectGolden(tree_,
                 SolveNodeProblemOnTree(Problem(), tree_, ids_, id_space_, g.k),
                 g);
  }
}

TEST_P(Thm12GoldenTest, ParallelTwoThreads) {
  for (const Golden& g : Rows()) {
    SCOPED_TRACE(g.k);
    ExpectGolden(tree_,
                 SolveNodeProblemOnTree(Problem(), tree_, ids_, id_space_,
                                        g.k, 2),
                 g);
  }
}

TEST_P(Thm12GoldenTest, Batch) {
  std::vector<Golden> rows = Rows();
  std::vector<int> ks;
  for (const Golden& g : rows) ks.push_back(g.k);
  std::vector<Thm12Result> results =
      SolveNodeProblemOnTreeBatch(Problem(), tree_, ids_, id_space_, ks);
  ASSERT_EQ(results.size(), rows.size());
  for (size_t b = 0; b < rows.size(); ++b) {
    SCOPED_TRACE(rows[b].k);
    ExpectGolden(tree_, results[b], rows[b]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Thm12GoldenTest, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace treelocal
