// Overflow-hardening boundary tests for the 10^8-edge scale: the int32
// node/edge arithmetic audit (ISSUE 10 satellite) left two validated
// limits, both separately callable so the exact boundary is testable
// without allocating a 2^30-edge list. Each must throw the structured
// GraphLimitError naming the offending count — silent wraparound at
// 2m >= 2^31 was the failure mode being closed.
#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <string>

#include "src/graph/compact_graph.h"
#include "src/graph/graph.h"
#include "src/local/network.h"

namespace treelocal {
namespace {

TEST(GraphLimitsTest, EdgeCountBoundary) {
  // The uncompressed CSR's int32 offsets cap m below 2^30.
  constexpr int64_t kLimit = int64_t{1} << 30;
  EXPECT_NO_THROW(internal::ValidateEdgeCount(1000, kLimit - 1));
  EXPECT_NO_THROW(internal::ValidateEdgeCount(1000, 0));
  for (const int64_t m : {kLimit, kLimit + 1, int64_t{1} << 40}) {
    try {
      internal::ValidateEdgeCount(1000, m);
      FAIL() << "m = " << m << " passed the CSR edge-count limit";
    } catch (const GraphLimitError& e) {
      // The error must name the offending count, not just "too big".
      EXPECT_NE(std::string(e.what()).find(std::to_string(m)),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(GraphLimitsTest, ChannelScaleBoundary) {
  // Every engine indexes 2m channels with int32 (+ sentinel headroom 4).
  constexpr int64_t kMaxChannels = static_cast<int64_t>(INT32_MAX) - 4;
  const int64_t max_m = kMaxChannels / 2;
  EXPECT_NO_THROW(local::internal::ValidateChannelScale(100, max_m, "Network"));
  for (const int64_t m : {max_m + 1, max_m + 2, int64_t{1} << 40}) {
    try {
      local::internal::ValidateChannelScale(100, m, "ReferenceNetwork");
      FAIL() << "m = " << m << " passed the channel-scale limit";
    } catch (const GraphLimitError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::to_string(m)), std::string::npos) << what;
      EXPECT_NE(what.find("ReferenceNetwork"), std::string::npos) << what;
    }
  }
}

TEST(GraphLimitsTest, CompactBuilderNodeBoundary) {
  // CompactGraph packs node ids into 32-bit varint/anchor fields.
  EXPECT_NO_THROW(CompactGraph::Builder(int64_t{0}));
  EXPECT_NO_THROW(CompactGraph::Builder(int64_t{INT32_MAX}));
  for (const int64_t n : {int64_t{INT32_MAX} + 1, int64_t{-1}}) {
    try {
      CompactGraph::Builder builder(n);
      FAIL() << "n = " << n << " passed the builder node limit";
    } catch (const CompactGraphError& e) {
      EXPECT_NE(std::string(e.what()).find(std::to_string(n)),
                std::string::npos)
          << e.what();
    }
  }
}

// The byte-accounting helpers the bench's ratio gate divides by: a known
// tiny graph has an exactly computable CSR footprint (offset_ + nbr_ +
// inc_ + edge_u_ + edge_v_ as 4-byte ints).
TEST(GraphLimitsTest, MemoryBytesMatchesLayout) {
  const Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(g.MemoryBytes(),
            sizeof(int) * ((4 + 1) + 2 * 3 + 2 * 3 + 3 + 3));
  const CompactGraph cg = CompactGraph::FromGraph(g);
  EXPECT_EQ(cg.MemoryBytes(), cg.Serialize().size());
}

}  // namespace
}  // namespace treelocal
