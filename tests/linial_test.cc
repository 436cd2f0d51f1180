#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "src/algos/linial.h"
#include "src/graph/generators.h"
#include "src/graph/linegraph.h"
#include "src/support/mathutil.h"
#include "src/support/rng.h"

namespace treelocal {
namespace {

void ExpectProper(const Graph& g, const std::vector<int64_t>& colors,
                  int64_t num_colors) {
  for (int e = 0; e < g.NumEdges(); ++e) {
    auto [u, v] = g.Endpoints(e);
    EXPECT_NE(colors[u], colors[v]);
  }
  for (int64_t c : colors) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, num_colors);
  }
}

TEST(LinialTest, ProperOnRandomTree) {
  const int n = 2000;
  Graph g = UniformRandomTree(n, 1);
  auto ids = DefaultIds(n, 2);
  int64_t space = static_cast<int64_t>(n) * n * n;
  auto result = RunLinial(g, ids, space);
  ExpectProper(g, result.colors, result.num_colors);
}

TEST(LinialTest, ProperOnGrid) {
  Graph g = Grid(30, 30);
  auto ids = DefaultIds(g.NumNodes(), 3);
  int64_t space = static_cast<int64_t>(g.NumNodes()) * g.NumNodes();
  auto result = RunLinial(g, ids, space);
  ExpectProper(g, result.colors, result.num_colors);
}

TEST(LinialTest, ProperOnHighDegreeStar) {
  Graph g = Star(500);
  auto ids = DefaultIds(500, 4);
  auto result = RunLinial(g, ids, 500LL * 500 * 500);
  ExpectProper(g, result.colors, result.num_colors);
}

TEST(LinialTest, FinalColorCountPolynomialInDelta) {
  // num_colors = q^2 with q = O(Delta log Delta); assert O(Delta^2 log^2).
  for (int delta : {2, 4, 8, 16}) {
    Graph g = BoundedDegreeRandomTree(3000, delta, 7);
    int real_delta = g.MaxDegree();
    auto ids = DefaultIds(3000, 8);
    auto result = RunLinial(g, ids, 3000LL * 3000 * 3000);
    ExpectProper(g, result.colors, result.num_colors);
    double bound = 64.0 * real_delta * real_delta *
                   (std::log2(real_delta) + 2) * (std::log2(real_delta) + 2);
    EXPECT_LE(result.num_colors, bound) << "delta=" << real_delta;
  }
}

TEST(LinialTest, RoundsAreLogStarLike) {
  // Schedule length is O(log* id_space): tiny even for big instances.
  for (int n : {100, 10000, 100000}) {
    int64_t space = static_cast<int64_t>(n) * n * n;
    LinialSchedule schedule = BuildLinialSchedule(space, 8);
    EXPECT_LE(static_cast<int>(schedule.steps.size()),
              LogStar(static_cast<double>(space)) + 4)
        << "n=" << n;
  }
}

TEST(LinialTest, ScheduleDeterministic) {
  LinialSchedule a = BuildLinialSchedule(1 << 30, 12);
  LinialSchedule b = BuildLinialSchedule(1 << 30, 12);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].q, b.steps[i].q);
    EXPECT_EQ(a.steps[i].d, b.steps[i].d);
  }
  EXPECT_EQ(a.final_colors, b.final_colors);
}

TEST(LinialTest, ScheduleStepsShrink) {
  LinialSchedule s = BuildLinialSchedule(int64_t{1} << 40, 6);
  int64_t m = int64_t{1} << 40;
  for (const LinialStep& step : s.steps) {
    EXPECT_GT(step.q, 6 * step.d) << "q must exceed Delta*d";
    int64_t next = step.q * step.q;
    EXPECT_LT(next, m) << "each step must make progress";
    m = next;
  }
  EXPECT_EQ(m, s.final_colors);
}

TEST(LinialTest, ZeroDegreeGraph) {
  Graph g = Graph::FromEdges(5, {});
  auto ids = DefaultIds(5, 9);
  auto result = RunLinial(g, ids, 1000);
  EXPECT_EQ(result.num_colors, 1);
  for (int64_t c : result.colors) EXPECT_EQ(c, 0);
}

TEST(LinialTest, ProperOnLineGraph) {
  // The edge-problem path: Linial on L(G).
  Graph g = UniformRandomTree(500, 10);
  auto host_ids = DefaultIds(500, 11);
  LineGraph lg = BuildLineGraph(g);
  auto line_ids = LineGraphIds(g, host_ids);
  int64_t space = 7LL * g.NumEdges() + 1;
  auto result = RunLinial(lg.graph, line_ids, space);
  ExpectProper(lg.graph, result.colors, result.num_colors);
}

TEST(LinialTest, DeterministicColors) {
  Graph g = UniformRandomTree(300, 12);
  auto ids = DefaultIds(300, 13);
  auto r1 = RunLinial(g, ids, 300LL * 300 * 300);
  auto r2 = RunLinial(g, ids, 300LL * 300 * 300);
  EXPECT_EQ(r1.colors, r2.colors);
  EXPECT_EQ(r1.rounds, r2.rounds);
}

// ---------- LinialChooseColor against a reference step ----------

// The mask-scan form of one Linial step, kept as the oracle: evaluate our
// polynomial at every x in [0, q), mark each neighbor's agreeing points in
// a bitmask (at most d per neighbor), and take the mask's first zero. A
// neighbor holding our own color agrees everywhere and throws.
int64_t MaskScanChooseColor(int64_t color, const LinialStep& step,
                            const std::vector<int64_t>& nbr) {
  const int64_t q = step.q;
  const int d = step.d;
  const int64_t mine0 = color % q;
  bool x0_free = true;
  for (int64_t c : nbr) x0_free = x0_free && c % q != mine0;
  if (x0_free) return mine0;
  auto digits = [&](int64_t c) {
    std::vector<int64_t> out(d + 1);
    for (int i = 0; i <= d; ++i) {
      out[i] = c % q;
      c /= q;
    }
    return out;
  };
  auto eval = [&](const std::vector<int64_t>& dig, int64_t x) {
    int64_t acc = 0;
    for (int i = d; i >= 0; --i) acc = (acc * x + dig[i]) % q;
    return acc;
  };
  const std::vector<int64_t> mine = digits(color);
  std::vector<int64_t> mine_eval(q);
  for (int64_t x = 0; x < q; ++x) mine_eval[x] = eval(mine, x);
  std::vector<uint64_t> blocked((q + 63) / 64, 0);
  for (int64_t c : nbr) {
    if (c == color) throw std::logic_error("Linial step found no free point");
    const std::vector<int64_t> theirs = digits(c);
    int hits = 0;
    for (int64_t x = 0; x < q; ++x) {
      if (eval(theirs, x) == mine_eval[x]) {
        blocked[x >> 6] |= 1ull << (x & 63);
        if (++hits == d) break;
      }
    }
  }
  for (size_t w = 0; w < blocked.size(); ++w) {
    uint64_t m = blocked[w];
    if (w + 1 == blocked.size() && (q & 63) != 0) m |= ~0ull << (q & 63);
    const int z = std::countr_one(m);
    if (z < 64) {
      const int64_t x = static_cast<int64_t>(w) * 64 + z;
      return x * q + mine_eval[x];
    }
  }
  throw std::logic_error("Linial step found no free point");
}

constexpr int64_t kThrew = -1;

// The step's new color, or kThrew if it reported no free point.
template <typename F>
int64_t Outcome(F step) {
  try {
    return step();
  } catch (const std::logic_error&) {
    return kThrew;
  }
}

// Runs both implementations on one node's view; returns the shared outcome.
int64_t ExpectSameStep(int64_t color, const LinialStep& step,
                       const std::vector<int64_t>& nbr) {
  const int64_t want =
      Outcome([&] { return MaskScanChooseColor(color, step, nbr); });
  const int64_t got = Outcome([&] {
    return internal::LinialChooseColor(color, step, nbr.data(),
                                       static_cast<int>(nbr.size()));
  });
  EXPECT_EQ(got, want) << "q=" << step.q << " d=" << step.d
                       << " color=" << color << " nbrs=" << nbr.size();
  return want;
}

// A color below m, != color, congruent to color mod q (so it blocks x = 0)
// when possible; uniform otherwise.
int64_t DrawNeighbor(Rng& rng, int64_t color, int64_t q, int64_t m,
                     bool conflict_at_zero) {
  for (;;) {
    int64_t c;
    if (conflict_at_zero && m / q > 1) {
      c = color % q + q * static_cast<int64_t>(rng.NextBelow(m / q));
    } else {
      c = static_cast<int64_t>(rng.NextBelow(m));
    }
    if (c != color && c < m) return c;
  }
}

// A color whose polynomial agrees with `color`'s at exactly x = t when
// d = 1: another slope through the same point.
int64_t LineThrough(int64_t color, int64_t q, int64_t t, int64_t slope) {
  const int64_t c0 = color % q, c1 = (color / q) % q;
  const int64_t n0 = ((c0 + (c1 - slope) * t) % q + q) % q;
  return n0 + slope * q;
}

// Steps shaped like real schedules: (q, d) from BuildLinialSchedule, colors
// below the step's input color count m, up to Delta neighbors. Step 1 draws
// from ID spaces up to n^3 = 2^54 (n = 2^18), and half the neighbors are
// forced to conflict at x = 0, so the scan past x = 0 runs often.
TEST(LinialChooseColorTest, MatchesMaskScanOnScheduleSteps) {
  Rng rng(0x11a1a1);
  int64_t steps = 0, past_zero = 0;
  for (int64_t n : {int64_t{1} << 10, int64_t{1} << 14, int64_t{1} << 18}) {
    for (int delta : {1, 2, 3, 4, 6, 10, 20, 40, 100}) {
      const int64_t space = n * n * n;
      const LinialSchedule schedule = BuildLinialSchedule(space + 1, delta);
      int64_t m = space + 1;
      for (const LinialStep& step : schedule.steps) {
        // Bound the oracle's O(q * Delta) work per draw.
        const int64_t trials = std::clamp<int64_t>(
            int64_t{400000} / (step.q * (delta + 1)), 16, 400);
        for (int64_t t = 0; t < trials; ++t) {
          const int64_t color =
              t % 8 == 0 ? m - 1 - static_cast<int64_t>(rng.NextBelow(
                                       std::min<int64_t>(m, 1000)))
                         : static_cast<int64_t>(rng.NextBelow(m));
          const int count = static_cast<int>(rng.NextInRange(0, delta));
          const double p_conflict = rng.NextBool() ? 0.5 : 1.0 / (delta + 1);
          std::vector<int64_t> nbr;
          for (int i = 0; i < count; ++i) {
            nbr.push_back(
                DrawNeighbor(rng, color, step.q, m, rng.NextBool(p_conflict)));
          }
          const int64_t got = ExpectSameStep(color, step, nbr);
          ASSERT_NE(got, kThrew) << "q > Delta*d guarantees a free point";
          ++steps;
          past_zero += got >= step.q;
        }
        m = step.q * step.q;
      }
    }
  }
  EXPECT_GT(steps, 10000);
  EXPECT_GT(past_zero, 1000) << "the fuzz must exercise x > 0";
}

// A hub-sized prime with d = 1: every neighbor is a line, so each blocks at
// most one point, and parallel lines (same slope) block none.
TEST(LinialChooseColorTest, MatchesMaskScanOnHubSizedLines) {
  Rng rng(0x4b0b);
  for (int delta : {257, 1000}) {
    const LinialStep step{NextPrimeAtLeast(delta + 2), 1};
    const int64_t q = step.q, m = q * q;
    for (int t = 0; t < 24; ++t) {
      const int64_t color = static_cast<int64_t>(rng.NextBelow(m));
      const int count = t % 3 == 0 ? delta
                                   : static_cast<int>(rng.NextInRange(1, delta));
      std::vector<int64_t> nbr;
      for (int i = 0; i < count; ++i) {
        nbr.push_back(DrawNeighbor(rng, color, q, m, rng.NextBool(0.7)));
      }
      ASSERT_NE(ExpectSameStep(color, step, nbr), kThrew);
    }
  }
}

// Neighbors chosen to block x = 0, 1, ..., t-1 exactly, so the first free
// point is x = t; blocking all q points makes both implementations throw.
TEST(LinialChooseColorTest, ForcedConflictsPushTheFreePointUp) {
  for (int64_t q : {5, 7, 13, 31, 67, 131}) {
    const LinialStep step{q, 1};
    for (int64_t color : {int64_t{0}, q + 2, q * q - 1, 3 * q + q / 2}) {
      const int64_t c1 = (color / q) % q;
      for (int64_t t = 0; t <= q; ++t) {
        std::vector<int64_t> nbr;
        for (int64_t x = 0; x < t; ++x) {
          const int64_t slope = (c1 + 1 + x % (q - 1)) % q;  // != c1
          nbr.push_back(LineThrough(color, q, x, slope));
        }
        const int64_t got = ExpectSameStep(color, step, nbr);
        if (t < q) {
          EXPECT_EQ(got / q, t) << "q=" << q << " color=" << color;
        } else {
          EXPECT_EQ(got, kThrew);
        }
      }
    }
  }
  // Degree-2 polynomials: each neighbor blocks up to two points.
  Rng rng(0xd2);
  const LinialStep step{NextPrimeAtLeast(3 * 2 + 2), 2};
  const int64_t m = step.q * step.q * step.q;
  for (int t = 0; t < 2000; ++t) {
    const int64_t color = static_cast<int64_t>(rng.NextBelow(m));
    std::vector<int64_t> nbr;
    for (int i = 0; i < 3; ++i) {
      nbr.push_back(DrawNeighbor(rng, color, step.q, m, true));
    }
    ASSERT_NE(ExpectSameStep(color, step, nbr), kThrew);
  }
}

TEST(LinialChooseColorTest, DuplicateColorThrows) {
  const LinialStep step{11, 2};
  for (int64_t color : {int64_t{0}, int64_t{5}, int64_t{11 * 11 * 11 - 1}}) {
    for (const std::vector<int64_t>& nbr :
         {std::vector<int64_t>{color}, std::vector<int64_t>{1 + color % 7,
                                                            color},
          std::vector<int64_t>{color, color}}) {
      EXPECT_THROW(internal::LinialChooseColor(color, step, nbr.data(),
                                               static_cast<int>(nbr.size())),
                   std::logic_error);
      EXPECT_EQ(ExpectSameStep(color, step, nbr), kThrew);
    }
  }
  // Duplicates among the neighbors alone are legal.
  const std::vector<int64_t> nbr = {11, 11, 22};
  EXPECT_NE(ExpectSameStep(0, step, nbr), kThrew);
}

class LinialDegreeSweep : public ::testing::TestWithParam<int> {};

TEST_P(LinialDegreeSweep, ProperAcrossDegrees) {
  int delta = GetParam();
  Graph g = BoundedDegreeRandomTree(1000, delta, 21);
  auto ids = DefaultIds(1000, 22);
  auto result = RunLinial(g, ids, 1000LL * 1000 * 1000);
  ExpectProper(g, result.colors, result.num_colors);
}

INSTANTIATE_TEST_SUITE_P(Degrees, LinialDegreeSweep,
                         ::testing::Values(2, 3, 4, 6, 10, 20, 40));

}  // namespace
}  // namespace treelocal
