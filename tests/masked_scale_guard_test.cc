// Scale guard for the masked-component routines: hundreds of thousands of
// components on a million-node graph. Each call must cost O(n) in total,
// not O(n) per component; the per-component form would zero an n-sized
// array ~2^19 times here and overrun the 60 s ctest TIMEOUT set for this
// binary in CMakeLists.txt. Nothing here reads a clock.

#include <gtest/gtest.h>

#include <vector>

#include "src/graph/algorithms.h"
#include "src/graph/generators.h"

namespace treelocal {
namespace {

TEST(MaskedScaleGuardTest, PathWithEveryOtherNodeMasked) {
  const int n = 1 << 20;
  Graph path = Path(n);
  std::vector<char> mask(n);
  std::vector<int64_t> key(n);
  for (int v = 0; v < n; ++v) {
    mask[v] = v % 2 == 0;
    key[v] = v;
  }

  std::vector<ComponentLeader> leaders =
      MaskedComponentLeaders(path, mask, key);
  ASSERT_EQ(leaders.size(), static_cast<size_t>(n / 2));
  for (size_t c = 0; c < leaders.size(); ++c) {
    ASSERT_EQ(leaders[c].leader, static_cast<int>(2 * c));
    ASSERT_EQ(leaders[c].eccentricity, 0);
    ASSERT_EQ(leaders[c].nodes, std::vector<int>{static_cast<int>(2 * c)});
  }

  int num = 0;
  std::vector<int> comp = MaskedComponents(path, mask, &num);
  ASSERT_EQ(num, n / 2);
  std::vector<int> diam = MaskedTreeComponentDiameters(path, mask, comp, num);
  for (int d : diam) ASSERT_EQ(d, 0);
}

TEST(MaskedScaleGuardTest, LongCaterpillarWithAlternatingSpine) {
  // Spine nodes are 0..spine-1; spine node i owns the legs
  // spine + i * legs .. spine + i * legs + legs - 1. Masking out the odd
  // spine nodes leaves a star (spine node + its legs) per even spine node
  // and a singleton per leg of an odd one: 2^16 + 3 * 2^16 components.
  const int spine = 1 << 17, legs = 3;
  Graph g = Caterpillar(spine, legs);
  const int n = g.NumNodes();
  std::vector<char> mask(n, 1);
  std::vector<int64_t> key(n);
  for (int v = 0; v < n; ++v) key[v] = v;
  for (int i = 1; i < spine; i += 2) mask[i] = 0;
  auto leg = [&](int i, int l) { return spine + i * legs + l; };

  std::vector<ComponentLeader> leaders = MaskedComponentLeaders(g, mask, key);
  int num = 0;
  std::vector<int> comp = MaskedComponents(g, mask, &num);
  std::vector<int> diam = MaskedTreeComponentDiameters(g, mask, comp, num);
  ASSERT_EQ(num, spine / 2 + (spine / 2) * legs);
  ASSERT_EQ(leaders.size(), static_cast<size_t>(num));
  for (int i = 0; i < spine; ++i) {
    if (i % 2 == 0) {
      // Star: the highest-numbered leg leads, two hops from its siblings.
      const ComponentLeader& star = leaders[comp[i]];
      ASSERT_EQ(star.leader, leg(i, legs - 1));
      ASSERT_EQ(star.eccentricity, 2);
      ASSERT_EQ(star.nodes.size(), static_cast<size_t>(legs + 1));
      ASSERT_EQ(diam[comp[i]], 2);
    } else {
      for (int l = 0; l < legs; ++l) {
        const ComponentLeader& single = leaders[comp[leg(i, l)]];
        ASSERT_EQ(single.leader, leg(i, l));
        ASSERT_EQ(single.eccentricity, 0);
        ASSERT_EQ(diam[comp[leg(i, l)]], 0);
      }
    }
  }

  // The full mask is one component spanning the spine plus two legs.
  std::vector<char> all(n, 1);
  std::vector<ComponentLeader> whole = MaskedComponentLeaders(g, all, key);
  ASSERT_EQ(whole.size(), 1u);
  ASSERT_EQ(whole[0].leader, n - 1);
  ASSERT_EQ(whole[0].eccentricity, spine + 1);
  std::vector<int> one(n, 0);
  ASSERT_EQ(MaskedTreeComponentDiameters(g, all, one, 1)[0], spine + 1);
}

}  // namespace
}  // namespace treelocal
