// Backend parity: a CompactGraph-backed engine run — in-RAM or mmap-opened
// from a .cgr file — must be bit-identical to the Graph-backed run on the
// same input: digest chains, rounds, message totals, RoundStats, and total
// visits. Pinned across the whole engine matrix (Network / ReferenceNetwork
// / BatchNetwork, relabel on/off, T in {1, 2, 8}) on trees, forests, star
// unions, hubbed forests, and multi-component graphs, for a dense and a
// wake-scheduled algorithm.
// This is THE determinism contract of the compressed backend: ports name
// positions in the shared sorted adjacency, so nothing transcript-bearing
// may depend on which backend served them.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/rake_compress.h"
#include "src/graph/compact_graph.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/graph/graph_view.h"
#include "src/local/network.h"
#include "src/local/reference_network.h"
#include "src/local/snapshot.h"
#include "src/support/digest.h"
#include "src/support/rng.h"

namespace treelocal {
namespace {

// A temp .cgr written from `g`, mmap-opened, deleted on destruction.
struct MappedCgr {
  std::string path;
  CompactGraph graph;
  explicit MappedCgr(const CompactGraph& g, const std::string& tag) {
    path = ::testing::TempDir() + "backend_parity_" + tag + ".cgr";
    g.WriteFile(path);
    graph = CompactGraph::OpenMapped(path);
  }
  ~MappedCgr() { std::remove(path.c_str()); }
};

// Base of the parity algorithms: every visit compares the engine's O(1)
// ctx.degree() against the backend's own Degree, counting disagreements
// (atomically — Network shards visit concurrently).
class DegreeCheckedAlgorithm : public local::Algorithm {
 public:
  explicit DegreeCheckedAlgorithm(GraphView g) : g_(g) {}
  int64_t degree_mismatches() const { return mismatches_.load(); }

 protected:
  int CheckedDegree(const local::NodeContext& ctx) {
    const int deg = ctx.degree();
    if (deg != g_.Degree(ctx.node())) {
      mismatches_.fetch_add(1, std::memory_order_relaxed);
    }
    return deg;
  }

  GraphView g_;

 private:
  std::atomic<int64_t> mismatches_{0};
};

// Runs on every engine and every graph: each node folds its received words
// into per-node state and re-broadcasts for a fixed number of rounds, so
// every port, channel, and degree lookup the backend serves feeds the
// digest chain. Halts uniformly at kRounds. The fold is unsigned: it wraps
// within a few rounds at hub nodes, and signed overflow would be UB.
class EchoAlgorithm : public DegreeCheckedAlgorithm {
 public:
  static constexpr int kRounds = 5;
  using DegreeCheckedAlgorithm::DegreeCheckedAlgorithm;
  size_t StateBytes() const override { return sizeof(uint64_t); }
  void InitState(int node, void* state) override {
    *static_cast<uint64_t*>(state) = g_.Degree(node) * 1315423911ULL + node;
  }
  void OnRound(local::NodeContext& ctx) override {
    uint64_t& acc = ctx.State<uint64_t>();
    const int deg = CheckedDegree(ctx);
    for (int p = 0; p < deg; ++p) {
      const local::Message& msg = ctx.Recv(p);
      if (msg.present()) {
        acc = acc * 31 + static_cast<uint64_t>(msg.word0) +
              static_cast<uint64_t>(msg.word1);
      }
    }
    if (ctx.round() >= kRounds) {
      ctx.Halt();
      return;
    }
    ctx.Broadcast(local::Message::Of(static_cast<int64_t>(acc),
                                     ctx.round() + deg));
  }
};

// The wake-scheduled variant, which runs the engines' message-wake barrier
// (the inbox scan over each sleeping receiver's channel block). Even nodes
// act every round but broadcast only every third round; odd nodes start
// parked until the halt round and are woken by messages, reply once, and
// park again. An odd node's visit with an empty inbox before kRounds is a
// pure no-op, which is what makes its sleeps transcript-invisible.
class WakeEchoAlgorithm : public DegreeCheckedAlgorithm {
 public:
  static constexpr int kRounds = 10;
  using DegreeCheckedAlgorithm::DegreeCheckedAlgorithm;
  size_t StateBytes() const override { return sizeof(uint64_t); }
  bool WakeScheduled() const override { return true; }
  int InitialWakeRound(int node) const override {
    return node % 2 == 0 ? 0 : kRounds;
  }
  void InitState(int node, void* state) override {
    *static_cast<uint64_t*>(state) = g_.Degree(node) * 2654435761ULL + node;
  }
  void OnRound(local::NodeContext& ctx) override {
    uint64_t& acc = ctx.State<uint64_t>();
    const int deg = CheckedDegree(ctx);
    bool got = false;
    for (int p = 0; p < deg; ++p) {
      const local::Message& msg = ctx.Recv(p);
      if (msg.present()) {
        acc = acc * 31 + static_cast<uint64_t>(msg.word0) +
              static_cast<uint64_t>(msg.word1) + static_cast<uint64_t>(p);
        got = true;
      }
    }
    if (ctx.round() >= kRounds) {
      ctx.Halt();
      return;
    }
    if (ctx.node() % 2 == 0) {
      if (ctx.round() % 3 == 0) {
        ctx.Broadcast(local::Message::Of(static_cast<int64_t>(acc),
                                         ctx.round() + deg));
      }
      return;
    }
    if (got) {
      ctx.Broadcast(local::Message::Of(static_cast<int64_t>(acc),
                                       -ctx.round()));
    }
    ctx.SleepUntil(kRounds);
  }
};

struct RunRecord {
  int rounds = 0;
  int64_t messages = 0;
  int64_t visits = 0;
  int64_t wakes = 0;
  uint64_t digest = 0;
  std::vector<local::RoundStats> stats;
  bool operator==(const RunRecord& o) const {
    return rounds == o.rounds && messages == o.messages &&
           visits == o.visits && wakes == o.wakes && digest == o.digest &&
           stats == o.stats;
  }
};

int64_t TotalVisits(const std::vector<local::RoundStats>& stats) {
  int64_t visits = 0;
  for (const local::RoundStats& s : stats) visits += s.visits;
  return visits;
}

template <typename Engine>
void RecordSolo(const Engine& net, int rounds, RunRecord& rec) {
  rec.rounds = rounds;
  rec.messages = net.messages_delivered();
  rec.digest = net.last_digest();
  rec.stats = net.round_stats();
  rec.visits = TotalVisits(rec.stats);
  rec.wakes = net.wakes();
}

// One engine config applied to one backend. Every visit's ctx.degree() must
// equal the backend's Degree, on every engine.
template <typename Alg>
RunRecord RunConfig(GraphView g, const std::vector<int64_t>& ids,
                    const std::string& engine, int threads, bool relabel) {
  local::NetworkOptions opts;
  opts.relabel = relabel;
  Alg alg(g);
  Alg alg2(g);
  const int max_rounds = Alg::kRounds + 4;
  RunRecord rec;
  if (engine == "network") {
    local::Network net(g, ids, opts);
    RecordSolo(net, net.Run(alg, max_rounds), rec);
  } else if (engine == "parallel") {
    local::Network net(g, ids, threads, opts);
    RecordSolo(net, net.Run(alg, max_rounds), rec);
  } else if (engine == "reference") {
    local::ReferenceNetwork net(g, ids, opts);
    RecordSolo(net, net.Run(alg, max_rounds), rec);
  } else {  // batch / pbatch: two instances, fold both transcripts
    const int batch = 2;
    local::BatchNetwork net(g, ids, batch, engine == "pbatch" ? threads : 1,
                            opts);
    std::vector<local::Algorithm*> algs = {&alg, &alg2};
    std::vector<int> rounds = net.Run(algs, max_rounds);
    for (int b = 0; b < batch; ++b) {
      rec.rounds += rounds[b];
      rec.messages += net.messages_delivered(b);
      rec.wakes += net.wakes(b);
      rec.digest = support::Fnv1a64(&b, sizeof(b), rec.digest) ^
                   net.last_digest(b);
      const auto& stats = net.round_stats(b);
      rec.visits += TotalVisits(stats);
      rec.stats.insert(rec.stats.end(), stats.begin(), stats.end());
    }
  }
  EXPECT_EQ(alg.degree_mismatches(), 0) << engine;
  EXPECT_EQ(alg2.degree_mismatches(), 0) << engine;
  return rec;
}

struct Workload {
  std::string name;
  Graph graph;
};

// Two disjoint uniform trees plus isolated nodes — the multi-component case.
Graph MultiComponent(int n_each, uint64_t seed) {
  std::vector<std::pair<int, int>> edges;
  const Graph a = UniformRandomTree(n_each, seed);
  const Graph b = UniformRandomTree(n_each, seed + 1);
  for (int e = 0; e < a.NumEdges(); ++e) edges.push_back(a.Endpoints(e));
  for (int e = 0; e < b.NumEdges(); ++e) {
    auto [u, v] = b.Endpoints(e);
    edges.emplace_back(u + n_each, v + n_each);
  }
  return Graph::FromEdges(2 * n_each + 3, std::move(edges));  // +3 isolated
}

std::vector<Workload> Workloads() {
  std::vector<Workload> w;
  w.push_back({"tree", UniformRandomTree(257, 11)});
  w.push_back({"forest_union", ForestUnion(120, 3, 5)});
  w.push_back({"star_union", StarUnion(150, 2, 7)});
  w.push_back({"hubbed", HubbedForest(140, 3, 9)});
  w.push_back({"multi_component", MultiComponent(90, 13)});
  return w;
}

TEST(GraphBackendParityTest, EngineMatrixBitIdentical) {
  struct Config {
    const char* engine;
    int threads;
  };
  const std::vector<Config> configs = {
      {"network", 1},  {"parallel", 1}, {"parallel", 2}, {"parallel", 8},
      {"reference", 1}, {"batch", 1},   {"pbatch", 2},   {"pbatch", 8},
  };
  // The hubbed forest's hub nodes take CompactGraph's len8_ == 255 escape,
  // the backend's slowest Degree path; ctx.degree() must agree there too.
  for (const Workload& w : Workloads()) {
    const Graph& g = w.graph;
    const CompactGraph compact = CompactGraph::FromGraph(g);
    MappedCgr mapped(compact, w.name);
    ASSERT_EQ(compact.NumNodes(), g.NumNodes()) << w.name;
    ASSERT_EQ(compact.NumEdges(), g.NumEdges()) << w.name;
    const auto ids = DefaultIds(g.NumNodes(), 1000 + g.NumNodes());
    for (const bool wake : {false, true}) {
      const auto run = wake ? RunConfig<WakeEchoAlgorithm>
                            : RunConfig<EchoAlgorithm>;
      // Every config must also agree with its engine family's serial CSR
      // run without relabel, not only with its own CSR run.
      const RunRecord solo_canon = run(g, ids, "network", 1, false);
      const RunRecord batch_canon = run(g, ids, "batch", 1, false);
      if (wake) {
        EXPECT_GT(solo_canon.wakes, 0) << w.name << " never woke a node";
      }
      for (const Config& c : configs) {
        for (bool relabel : {false, true}) {
          const RunRecord base = run(g, ids, c.engine, c.threads, relabel);
          const RunRecord ram = run(compact, ids, c.engine, c.threads, relabel);
          const RunRecord map =
              run(mapped.graph, ids, c.engine, c.threads, relabel);
          const std::string tag = w.name + (wake ? "/wake/" : "/dense/") +
                                  c.engine + "/T" + std::to_string(c.threads) +
                                  (relabel ? "/relabel" : "");
          EXPECT_EQ(base.digest, ram.digest) << tag;
          EXPECT_TRUE(base == ram) << tag << " (in-RAM compact diverged)";
          EXPECT_TRUE(base == map) << tag << " (mmap compact diverged)";
          const bool batch =
              std::string(c.engine).find("batch") != std::string::npos;
          EXPECT_TRUE(base == (batch ? batch_canon : solo_canon))
              << tag << " (diverged from the unrelabeled serial run)";
        }
      }
    }
  }
}

// The production pipeline on forests: rake-compress outputs, rounds,
// messages, and digests must agree across backends on every engine
// configuration.
TEST(GraphBackendParityTest, RakeCompressPipelineParity) {
  for (const char* family : {"tree", "multi"}) {
    const Graph g = std::string(family) == "tree" ? UniformRandomTree(400, 21)
                                                  : MultiComponent(150, 23);
    const CompactGraph compact = CompactGraph::FromGraph(g);
    MappedCgr mapped(compact, std::string("rc_") + family);
    const auto ids = DefaultIds(g.NumNodes(), 77);
    const int k = 3;
    const RakeCompressResult base = RunRakeCompress(g, ids, k);
    for (const CompactGraph* cg :
         {&compact, const_cast<const CompactGraph*>(&mapped.graph)}) {
      const RakeCompressResult got = RunRakeCompress(*cg, ids, k);
      EXPECT_EQ(base.iteration, got.iteration) << family;
      EXPECT_EQ(base.engine_rounds, got.engine_rounds) << family;
      EXPECT_EQ(base.messages, got.messages) << family;
      EXPECT_EQ(base.round_stats, got.round_stats) << family;
      const RakeCompressResult ref = RunRakeCompressReference(*cg, ids, k);
      EXPECT_EQ(base.round_stats, ref.round_stats) << family;
      const auto deduped =
          RunRakeCompressBatchDeduped(*cg, ids, {k, k + 5}, 2);
      EXPECT_EQ(base.iteration, deduped[0].iteration) << family;
      EXPECT_EQ(base.round_stats, deduped[0].round_stats) << family;
    }
  }
}

// graph_convert's promise in-process: a CompactGraph built by streaming the
// generator's edges through Builder in sorted-arc order equals (same image
// bytes) the one re-encoded from the eager Graph — and the streamed
// generators emit exactly the eager edge lists.
TEST(GraphBackendParityTest, StreamedGeneratorsMatchEager) {
  for (TreeFamily family : AllTreeFamilies()) {
    const int n = 153;
    const uint64_t seed = 31;
    const Graph eager = MakeTree(family, n, seed);
    std::vector<std::pair<int, int>> streamed;
    const int streamed_n = MakeTreeStreamed(
        family, n, seed, [&](int u, int v) { streamed.emplace_back(u, v); });
    EXPECT_EQ(streamed_n, eager.NumNodes()) << TreeFamilyName(family);
    ASSERT_EQ(static_cast<int>(streamed.size()), eager.NumEdges())
        << TreeFamilyName(family);
    for (int e = 0; e < eager.NumEdges(); ++e) {
      const auto [u, v] = streamed[static_cast<size_t>(e)];
      EXPECT_EQ(std::minmax(u, v),
                std::minmax(eager.EdgeU(e), eager.EdgeV(e)))
          << TreeFamilyName(family) << " edge " << e;
    }
  }
  // ForestUnionStreamed: the deduplicated support of the emitted multiset
  // is ForestUnion's edge set (sorted-arc dedup is what graph_convert does).
  const int n = 120, a = 3;
  const uint64_t seed = 17;
  const Graph eager = ForestUnion(n, a, seed);
  std::vector<uint64_t> arcs;
  ForestUnionStreamed(n, a, seed, [&](int u, int v) {
    arcs.push_back(static_cast<uint64_t>(u) << 32 | static_cast<uint32_t>(v));
    arcs.push_back(static_cast<uint64_t>(v) << 32 | static_cast<uint32_t>(u));
  });
  std::sort(arcs.begin(), arcs.end());
  arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());
  CompactGraph::Builder builder(n);
  for (uint64_t arc : arcs) {
    builder.AddArc(static_cast<int64_t>(arc >> 32),
                   static_cast<int64_t>(arc & 0xffffffffu));
  }
  const CompactGraph streamed = builder.Finish();
  const CompactGraph reencoded = CompactGraph::FromGraph(eager);
  EXPECT_EQ(streamed.Serialize(), reencoded.Serialize());
}

// Checkpoint/resume stays within the compact backend: pause a
// CompactGraph-backed run, resume it on a fresh CompactGraph-backed engine
// (mmap-opened this time), and the final digest must equal the
// uninterrupted Graph-backed run's.
TEST(GraphBackendParityTest, CompactCheckpointResume) {
  const Graph g = UniformRandomTree(500, 41);
  const CompactGraph compact = CompactGraph::FromGraph(g);
  MappedCgr mapped(compact, "ckpt");
  const auto ids = DefaultIds(g.NumNodes(), 43);
  const int k = 2;

  const int budget = 3 * (2 * RakeCompressIterationBound(500, k) + 8);
  local::Network full(g, ids);
  auto alg_full = MakeRakeCompressAlgorithm(full.view(), k);
  full.Run(*alg_full, budget);

  local::Network recorder(compact, ids);
  auto alg = MakeRakeCompressAlgorithm(compact, k);
  recorder.RunUntil(*alg, budget, 4);
  ASSERT_TRUE(recorder.paused());
  std::stringstream snap;
  recorder.Checkpoint(snap);

  local::Network resumed(mapped.graph, ids);
  resumed.Resume(snap);
  auto alg2 = MakeRakeCompressAlgorithm(mapped.graph, k);
  resumed.Run(*alg2, budget);
  EXPECT_EQ(resumed.last_digest(), full.last_digest());
}

// Checkpoint/resume across relabel, engines and backends: pause a
// relabeled, compact-backed Network (T = 2) in the middle of a
// wake-scheduled run, with parked nodes and undelivered messages at the
// boundary. The snapshot is canonical (external-indexed), so an unrelabeled
// mmap-backed Network, a ReferenceNetwork and a relabeled Network all resume
// it and must finish on the uninterrupted CSR run's digest.
TEST(GraphBackendParityTest, RelabeledCompactCheckpointResume) {
  const Graph g = HubbedForest(140, 3, 9);
  const CompactGraph compact = CompactGraph::FromGraph(g);
  MappedCgr mapped(compact, "ckpt_relabel");
  const auto ids = DefaultIds(g.NumNodes(), 47);
  const int max_rounds = WakeEchoAlgorithm::kRounds + 4;

  local::Network full(g, ids);
  WakeEchoAlgorithm alg_full(g);
  full.Run(alg_full, max_rounds);
  ASSERT_TRUE(full.wake_scheduled());
  ASSERT_GT(full.wakes(), 0);

  local::NetworkOptions relabel;
  relabel.relabel = true;
  for (const int pause : {2, 4, 5}) {
    local::Network recorder(compact, ids, 2, relabel);
    WakeEchoAlgorithm alg(compact);
    recorder.RunUntil(alg, max_rounds, pause);
    ASSERT_TRUE(recorder.paused()) << pause;
    std::stringstream snap;
    recorder.Checkpoint(snap);
    const std::string bytes = snap.str();

    local::Network resumed(mapped.graph, ids);
    std::istringstream in(bytes);
    resumed.Resume(in);
    WakeEchoAlgorithm alg2(mapped.graph);
    resumed.Run(alg2, max_rounds);
    EXPECT_EQ(resumed.last_digest(), full.last_digest()) << pause;
    EXPECT_EQ(resumed.round_stats(), full.round_stats()) << pause;

    local::ReferenceNetwork ref(compact, ids);
    std::istringstream in_ref(bytes);
    ref.Resume(in_ref);
    WakeEchoAlgorithm alg3(compact);
    ref.Run(alg3, max_rounds);
    EXPECT_EQ(ref.last_digest(), full.last_digest()) << pause;
    EXPECT_EQ(ref.round_stats(), full.round_stats()) << pause;

    // And back into a relabeled engine, whose snapshot apply places the
    // deliverables through the permutation.
    local::Network relabeled(compact, ids, relabel);
    std::istringstream in_relabeled(bytes);
    relabeled.Resume(in_relabeled);
    WakeEchoAlgorithm alg4(compact);
    relabeled.Run(alg4, max_rounds);
    EXPECT_EQ(relabeled.last_digest(), full.last_digest()) << pause;

    EXPECT_EQ(alg.degree_mismatches() + alg2.degree_mismatches() +
                  alg3.degree_mismatches() + alg4.degree_mismatches(),
              0)
        << pause;
  }
}

// Snapshot graph_hash binds to the backend's edge numbering: for a graph
// whose input edge order is already the canonical (min, max)-sorted order
// (a path), cross-backend resume works; ValidateForEngine's hash comparison
// rejects nothing. This pins the documented seam rather than papering over
// it.
TEST(GraphBackendParityTest, CrossBackendResumeOnCanonicalOrder) {
  const Graph g = Path(300);
  const CompactGraph compact = CompactGraph::FromGraph(g);
  std::vector<int64_t> ids(g.NumNodes());
  std::iota(ids.begin(), ids.end(), 0);
  EXPECT_EQ(local::GraphHash(g), local::GraphHash(compact));

  const int k = 2;
  const int budget = 3 * (2 * RakeCompressIterationBound(300, k) + 8);
  local::Network recorder(g, ids);
  auto alg = MakeRakeCompressAlgorithm(recorder.view(), k);
  recorder.RunUntil(*alg, budget, 1);
  ASSERT_TRUE(recorder.paused());
  std::stringstream snap;
  recorder.Checkpoint(snap);

  local::Network resumed(compact, ids);
  resumed.Resume(snap);
  auto alg2 = MakeRakeCompressAlgorithm(compact, k);
  resumed.Run(*alg2, budget);

  local::Network full(g, ids);
  auto alg3 = MakeRakeCompressAlgorithm(full.view(), k);
  full.Run(*alg3, budget);
  EXPECT_EQ(resumed.last_digest(), full.last_digest());
}

}  // namespace
}  // namespace treelocal
