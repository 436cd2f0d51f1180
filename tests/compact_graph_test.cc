#include "src/graph/compact_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/graph/graph_view.h"
#include "src/support/digest.h"

namespace treelocal {
namespace {

// Canonical edge list: sorted lexicographically by (min, max) — the order
// CompactGraph numbers edges in.
std::vector<std::pair<int, int>> SortedEdges(const Graph& g) {
  std::vector<std::pair<int, int>> edges;
  edges.reserve(g.NumEdges());
  for (int e = 0; e < g.NumEdges(); ++e) edges.push_back(g.Endpoints(e));
  std::sort(edges.begin(), edges.end());
  return edges;
}

// Exhaustive API equivalence of a CompactGraph against the Graph it was
// built from. Ports are positions in the shared sorted adjacency, so every
// port-level answer must agree exactly.
void ExpectEquivalent(const Graph& g, const CompactGraph& c) {
  ASSERT_EQ(c.NumNodes(), g.NumNodes());
  ASSERT_EQ(c.NumEdges(), g.NumEdges());
  EXPECT_EQ(c.MaxDegree(), g.MaxDegree());
  for (int v = 0; v < g.NumNodes(); ++v) {
    ASSERT_EQ(c.Degree(v), g.Degree(v)) << "node " << v;
    auto nbrs = g.Neighbors(v);
    std::vector<int> got;
    c.ForEachNeighbor(v, [&](int u) { got.push_back(u); });
    ASSERT_EQ(static_cast<int>(got.size()), g.Degree(v)) << "node " << v;
    for (int p = 0; p < g.Degree(v); ++p) {
      ASSERT_EQ(got[p], nbrs[p]) << "node " << v << " port " << p;
      ASSERT_EQ(c.NeighborAt(v, p), nbrs[p]) << "node " << v << " port " << p;
      ASSERT_EQ(c.PortOf(v, nbrs[p]), p) << "node " << v << " port " << p;
    }
  }
  // Edge ids: e-th edge in (min, max) order; every access path agrees.
  const auto edges = SortedEdges(g);
  int64_t count = 0;
  c.ForEachEdge([&](int64_t e, int u, int v) {
    ASSERT_EQ(e, count);
    ASSERT_LT(u, v);
    ASSERT_EQ(std::make_pair(u, v), edges[static_cast<size_t>(e)]);
    ++count;
  });
  ASSERT_EQ(count, c.NumEdges());
  for (int64_t e = 0; e < c.NumEdges(); ++e) {
    auto [u, v] = c.Endpoints(e);
    ASSERT_EQ(std::make_pair(u, v), edges[static_cast<size_t>(e)]) << e;
    ASSERT_EQ(c.EdgeBetween(u, v), e);
    ASSERT_EQ(c.EdgeBetween(v, u), e);
    ASSERT_EQ(c.EdgeId(u, c.PortOf(u, v)), e);
    ASSERT_EQ(c.EdgeId(v, c.PortOf(v, u)), e);
    ASSERT_EQ(c.OtherEndpoint(e, u), v);
    ASSERT_EQ(c.OtherEndpoint(e, v), u);
  }
  // Absent pairs.
  if (g.NumNodes() >= 2) {
    for (int v = 0; v < std::min(g.NumNodes(), 50); ++v) {
      for (int u = 0; u < std::min(g.NumNodes(), 50); ++u) {
        if (u == v) continue;
        EXPECT_EQ(c.EdgeBetween(u, v) >= 0, g.EdgeBetween(u, v) >= 0);
        EXPECT_EQ(c.PortOf(v, u) >= 0, g.PortOf(v, u) >= 0);
      }
    }
  }
}

TEST(CompactGraphTest, EmptyAndSingleton) {
  ExpectEquivalent(Graph::FromEdges(0, {}),
                   CompactGraph::FromGraph(Graph::FromEdges(0, {})));
  ExpectEquivalent(Graph::FromEdges(1, {}),
                   CompactGraph::FromGraph(Graph::FromEdges(1, {})));
  ExpectEquivalent(Graph::FromEdges(5, {}),
                   CompactGraph::FromGraph(Graph::FromEdges(5, {})));
}

TEST(CompactGraphTest, SmallFamiliesEquivalent) {
  for (const Graph& g :
       {Graph::FromEdges(2, {{0, 1}}), Path(33), Path(64), Star(65),
        CompleteBinaryTree(100), Grid(9, 7), TriangulatedGrid(6, 11),
        UniformRandomTree(257, 7), RandomRecursiveTree(301, 9),
        Caterpillar(20, 3), Spider(7, 11)}) {
    ExpectEquivalent(g, CompactGraph::FromGraph(g));
  }
}

TEST(CompactGraphTest, HubNodesUseAnchors) {
  // Star center: degree 999 -> stream >= 999 bytes -> hub with anchors.
  Graph g = Star(1000);
  CompactGraph c = CompactGraph::FromGraph(g);
  EXPECT_GE(c.num_hubs(), 1u);
  ExpectEquivalent(g, c);
}

TEST(CompactGraphTest, HubHeavyGraphsEquivalent) {
  for (const Graph& g : {StarUnion(400, 3, 11), HubbedForest(600, 3, 5),
                         ForestUnion(300, 4, 13)}) {
    ExpectEquivalent(g, CompactGraph::FromGraph(g));
  }
}

TEST(CompactGraphTest, MultiComponentEquivalent) {
  // Two components + isolated nodes.
  Graph g = Graph::FromEdges(
      10, {{0, 1}, {1, 2}, {5, 6}, {6, 7}, {5, 7}});
  ExpectEquivalent(g, CompactGraph::FromGraph(g));
}

TEST(CompactGraphTest, CompressesTreesWell) {
  Graph g = UniformRandomTree(1 << 14, 3);
  CompactGraph c = CompactGraph::FromGraph(g);
  const double bytes_per_edge =
      static_cast<double>(c.MemoryBytes()) / static_cast<double>(c.NumEdges());
  EXPECT_LE(bytes_per_edge, 6.0);
  EXPECT_GE(static_cast<double>(g.MemoryBytes()) /
                static_cast<double>(c.MemoryBytes()),
            4.0);
}

TEST(CompactGraphTest, SerializeRoundTrips) {
  Graph g = HubbedForest(500, 3, 21);
  CompactGraph c = CompactGraph::FromGraph(g);
  std::string image = c.Serialize();
  CompactGraph c2 = CompactGraph::FromBytes(image);
  EXPECT_EQ(c2.Serialize(), image);
  ExpectEquivalent(g, c2);
}

TEST(CompactGraphTest, FileRoundTripAndMmap) {
  Graph g = StarUnion(500, 2, 3);
  CompactGraph c = CompactGraph::FromGraph(g);
  const std::string path = "/tmp/treelocal_compact_graph_test.cgr";
  c.WriteFile(path);
  CompactGraph from_file = CompactGraph::FromFile(path);
  EXPECT_FALSE(from_file.mapped());
  ExpectEquivalent(g, from_file);
  CompactGraph mapped = CompactGraph::OpenMapped(path);
  EXPECT_TRUE(mapped.mapped());
  EXPECT_EQ(mapped.Serialize(), c.Serialize());
  ExpectEquivalent(g, mapped);
  std::remove(path.c_str());
}

TEST(CompactGraphTest, MoveTransfersOwnership) {
  Graph g = Path(100);
  CompactGraph c = CompactGraph::FromGraph(g);
  CompactGraph moved = std::move(c);
  ExpectEquivalent(g, moved);
  CompactGraph assigned = CompactGraph::FromGraph(Star(10));
  assigned = std::move(moved);
  ExpectEquivalent(g, assigned);
}

TEST(CompactGraphTest, BuilderMatchesFromGraph) {
  Graph g = UniformRandomTree(300, 17);
  CompactGraph::Builder b(g.NumNodes());
  for (int v = 0; v < g.NumNodes(); ++v) {
    for (int u : g.Neighbors(v)) b.AddArc(v, u);
  }
  CompactGraph c = b.Finish();
  EXPECT_EQ(c.Serialize(), CompactGraph::FromGraph(g).Serialize());
}

TEST(CompactGraphTest, BuilderRejectsBadInput) {
  EXPECT_THROW(CompactGraph::Builder(-1), CompactGraphError);
  {
    CompactGraph::Builder b(4);
    b.AddArc(1, 2);
    EXPECT_THROW(b.AddArc(0, 1), CompactGraphError);  // nodes out of order
  }
  {
    CompactGraph::Builder b(4);
    b.AddArc(0, 2);
    EXPECT_THROW(b.AddArc(0, 1), CompactGraphError);  // neighbors not sorted
  }
  {
    CompactGraph::Builder b(4);
    b.AddArc(0, 2);
    EXPECT_THROW(b.AddArc(0, 2), CompactGraphError);  // duplicate neighbor
  }
  {
    CompactGraph::Builder b(4);
    EXPECT_THROW(b.AddArc(0, 0), CompactGraphError);  // self-loop
    EXPECT_THROW(b.AddArc(0, 4), CompactGraphError);  // out of range
    EXPECT_THROW(b.AddArc(0, -1), CompactGraphError);
  }
  {
    CompactGraph::Builder b(3);
    b.AddArc(0, 1);  // one direction only: validation must reject
    EXPECT_THROW(b.FinishImage(), CompactGraphError);
  }
}

// ---------------------------------------------------------------------------
// Exact validation error texts. The checks below build their message only
// after the check fails, so a test that merely expects a throw would miss a
// garbled or swapped message; these pin the full text.

// Header field offsets (see the layout comment in compact_graph.h).
constexpr size_t kNodesAt = 16;
constexpr size_t kStreamBytesAt = 40;
constexpr size_t kTotalAnchorsAt = 56;

uint64_t GetU64(const std::string& image, size_t at) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(image[at + i]))
         << (8 * i);
  }
  return v;
}

void PutU64(std::string& image, size_t at, uint64_t v) {
  for (int i = 0; i < 8; ++i) image[at + i] = static_cast<char>(v >> (8 * i));
}

// Recomputes the integrity footer so parsing, not the hash, sees the edit.
std::string Repatched(std::string image) {
  PutU64(image, image.size() - 8,
         support::Fnv1a64(image.data(), image.size() - 8));
  return image;
}

std::string ErrorText(const std::string& image) {
  try {
    CompactGraph::FromBytes(image);
  } catch (const CompactGraphError& e) {
    return e.what();
  }
  return "(accepted)";
}

TEST(CompactGraphTest, NodeCountErrorText) {
  std::string image = CompactGraph::FromGraph(Path(40)).Serialize();
  PutU64(image, kNodesAt, ~uint64_t{0});
  EXPECT_EQ(ErrorText(Repatched(image)),
            "invalid .cgr image: node count -1 outside [0, 2^31)");
  PutU64(image, kNodesAt, uint64_t{1} << 31);
  EXPECT_EQ(ErrorText(Repatched(image)),
            "invalid .cgr image: node count 2147483648 outside [0, 2^31)");
}

TEST(CompactGraphTest, SectionSizeErrorText) {
  std::string image = CompactGraph::FromGraph(Path(40)).Serialize();
  std::string anchors = image;
  PutU64(anchors, kTotalAnchorsAt, uint64_t{1} << 40);
  EXPECT_EQ(ErrorText(Repatched(anchors)),
            "invalid .cgr image: anchor table section larger than the "
            "remaining image");
  PutU64(image, kStreamBytesAt, uint64_t{1} << 40);
  EXPECT_EQ(ErrorText(Repatched(image)),
            "invalid .cgr image: stream section larger than the remaining "
            "image");
}

TEST(CompactGraphTest, SectionPaddingErrorText) {
  // Path(40)'s stream is 1 + 2 * 38 + 1 = 78 bytes, not a multiple of 8; cut
  // the stream's padding so the section fits but its padding does not.
  std::string image = CompactGraph::FromGraph(Path(40)).Serialize();
  const uint64_t stream_bytes = GetU64(image, kStreamBytesAt);
  ASSERT_NE(stream_bytes % 8, 0u);
  const size_t padding = 8 - stream_bytes % 8;
  image.erase(image.size() - 8 - padding, padding);
  EXPECT_EQ(ErrorText(Repatched(image)),
            "invalid .cgr image: stream section padding overruns");
}

TEST(CompactGraphTest, HubSentinelErrorText) {
  // A sentinel with no hub-table entry. The cheap sentinel/table bijection
  // check (run on every open) rejects it, which also keeps the full
  // decode's per-node "hub sentinel for node v missing from the hub table"
  // check from ever seeing such an image.
  std::string image = CompactGraph::FromGraph(Star(1000)).Serialize();
  ASSERT_EQ(CompactGraph::FromBytes(image).num_hubs(), 1u);
  const size_t len8_at = 64 + 8 * ((1000 + 31) / 32) + 8 * 33;  // one wide
  ASSERT_EQ(static_cast<unsigned char>(image[len8_at]), 255);
  ASSERT_NE(static_cast<unsigned char>(image[len8_at + 1]), 255);
  image[len8_at + 1] = static_cast<char>(255);
  EXPECT_EQ(ErrorText(Repatched(image)),
            "invalid .cgr image: hub sentinel without a hub table entry");
}

TEST(CompactGraphTest, EupperBaseBlockErrorText) {
  // Path(96): three 32-node blocks, eupper_base = {0, 32, 64, 95}. 33 in
  // place of 32 still passes the cheap monotone/range checks; only the
  // full decode's per-block recount catches it.
  std::string image = CompactGraph::FromGraph(Path(96)).Serialize();
  const size_t eupper_at = 64 + 8 * 3 + 96;  // block_base, len8 (no wide)
  ASSERT_EQ(GetU64(image, eupper_at + 8), 32u);
  PutU64(image, eupper_at + 8, 33);
  EXPECT_EQ(ErrorText(Repatched(image)),
            "invalid .cgr image: eupper_base disagrees with the stream at "
            "block 1");
}

TEST(CompactGraphTest, AsymmetricAdjacencyErrorText) {
  // 0: {1}, 1: {0}, 2: {3}, 3: {1}. Entry and upper totals balance (4 =
  // 2 * 2), so only the symmetry pass finds that node 3 names 1 while 1
  // does not name 3 (and 2 names 3 while 3 does not name 2).
  CompactGraph::Builder b(4);
  b.AddArc(0, 1);
  b.AddArc(1, 0);
  b.AddArc(2, 3);
  b.AddArc(3, 1);
  EXPECT_EQ(ErrorText(b.FinishImage()),
            "invalid .cgr image: asymmetric adjacency at node 3 (a neighbor "
            "list names it but it does not reciprocate)");
}

TEST(CompactGraphTest, GraphViewDispatchesToBothBackends) {
  Graph g = UniformRandomTree(200, 23);
  CompactGraph c = CompactGraph::FromGraph(g);
  GraphView vg(g);
  GraphView vc(c);
  ASSERT_EQ(vg.NumNodes(), vc.NumNodes());
  ASSERT_EQ(vg.NumEdges(), vc.NumEdges());
  ASSERT_EQ(vg.MaxDegree(), vc.MaxDegree());
  for (int v = 0; v < vg.NumNodes(); ++v) {
    ASSERT_EQ(vg.Degree(v), vc.Degree(v));
    for (int p = 0; p < vg.Degree(v); ++p) {
      ASSERT_EQ(vg.NeighborAt(v, p), vc.NeighborAt(v, p));
      const int u = vg.NeighborAt(v, p);
      ASSERT_EQ(vg.PortOf(v, u), vc.PortOf(v, u));
      ASSERT_GE(vc.EdgeBetween(v, u), 0);
    }
  }
  EXPECT_EQ(vg.csr(), &g);
  EXPECT_EQ(vc.compact(), &c);
  EXPECT_NO_THROW(vg.RequireCsr("test"));
  EXPECT_THROW(vc.RequireCsr("test"), std::logic_error);
  // Edge enumeration covers every edge exactly once on both backends.
  int64_t edges_g = 0, edges_c = 0;
  vg.ForEachEdge([&](int64_t, int, int) { ++edges_g; });
  vc.ForEachEdge([&](int64_t, int, int) { ++edges_c; });
  EXPECT_EQ(edges_g, vg.NumEdges());
  EXPECT_EQ(edges_c, vc.NumEdges());
}

}  // namespace
}  // namespace treelocal
