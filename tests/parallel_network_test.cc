// Determinism suite for the sharded engine: Network (worklist shards) at
// T > 1 must be bit-identical to the same engine at T = 1 — outputs,
// executed rounds, message counts, and per-round RoundStats — for every
// thread count, across uneven worklist sizes (n not divisible by T, n < T,
// empty shards) and mid-run halting patterns that reshuffle the shard
// boundaries every round. Plus the NetworkOptions::relabel bit-identity
// contract, engine reuse, exception propagation out of sharded rounds, the
// pipeline entry points' thread parameter (rake-compress, Linial,
// Cole-Vishkin, distributed sweep, Theorem 12), rejection of thread counts
// outside the pool's range, and the round loops' send look-ahead at shard
// boundaries.
#include "src/local/network.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/algos/cole_vishkin.h"
#include "src/algos/distributed_sweep.h"
#include "src/algos/linial.h"
#include "src/core/rake_compress.h"
#include "src/core/transform_node.h"
#include "src/graph/generators.h"
#include "src/local/reference_network.h"
#include "src/problems/mis.h"
#include "src/support/rng.h"

namespace treelocal {
namespace {

using local::Algorithm;
using local::Message;
using local::Network;
using local::NetworkOptions;
using local::NodeContext;
using local::ReferenceNetwork;
using local::RoundStats;

// Message-dependent transcript with staggered, id-dependent halts (nodes
// drop out mid-run, so shard boundaries move every round) and a
// last-write-wins double-send to exercise the per-shard counter dedup.
class DigestAlgorithm : public Algorithm {
 public:
  explicit DigestAlgorithm(int n) : digest_(n, 0) {}

  void OnRound(NodeContext& ctx) override {
    const int v = ctx.node();
    uint64_t d = digest_[v] * 1000003ULL + 17;
    d += static_cast<uint64_t>(ctx.id());
    for (int p = 0; p < ctx.degree(); ++p) {
      const Message& m = ctx.Recv(p);
      if (m.present()) {
        d = d * 31 + static_cast<uint64_t>(m.word0) +
            3 * static_cast<uint64_t>(m.word1) + m.size;
      }
      d += static_cast<uint64_t>(ctx.neighbor_id(p));
    }
    digest_[v] = d;
    const int halt_round = static_cast<int>(ctx.id() % 11) + 1;
    if (ctx.round() >= halt_round) {
      ctx.Halt();
      return;
    }
    ctx.Broadcast(Message::Of(static_cast<int64_t>(d & 0x7fffffff), v));
    if (ctx.degree() > 0) {
      ctx.Send(0, Message::Of(static_cast<int64_t>(d % 97)));
    }
  }

  std::vector<uint64_t> digest_;
};

// Leaves peel off round by round: the worklist collapses from the outside
// in, the hard case for the stitched compaction.
class PeelLeaves : public Algorithm {
 public:
  explicit PeelLeaves(const Graph& g)
      : live_degree_(g.NumNodes()), mark_round_(g.NumNodes(), -1) {
    for (int v = 0; v < g.NumNodes(); ++v) live_degree_[v] = g.Degree(v);
  }

  void OnRound(NodeContext& ctx) override {
    const int v = ctx.node();
    for (int p = 0; p < ctx.degree(); ++p) {
      if (ctx.Recv(p).present()) --live_degree_[v];
    }
    if (live_degree_[v] <= 1) {
      mark_round_[v] = ctx.round();
      ctx.Broadcast(Message::Of(1));
      ctx.Halt();
    }
  }

  std::vector<int> live_degree_;
  std::vector<int> mark_round_;
};

struct RunOutcome {
  int rounds = 0;
  int64_t messages = 0;
  std::vector<RoundStats> stats;
};

template <typename Engine, typename Alg>
RunOutcome RunOn(Engine& net, Alg& alg, int max_rounds) {
  RunOutcome out;
  out.rounds = net.Run(alg, max_rounds);
  out.messages = net.messages_delivered();
  out.stats = net.round_stats();
  return out;
}

// The T-sweep stress: Network at T = 1 vs every T, same algorithm state and
// transcript required.
template <typename AlgFactory>
void ExpectParallelMatchesSerial(const Graph& g,
                                 const std::vector<int64_t>& ids,
                                 AlgFactory make_alg, int max_rounds) {
  auto serial_alg = make_alg();
  Network serial(g, ids);
  const RunOutcome want = RunOn(serial, *serial_alg, max_rounds);
  for (int threads : {1, 2, 3, 8}) {
    auto par_alg = make_alg();
    Network par(g, ids, threads);
    const RunOutcome got = RunOn(par, *par_alg, max_rounds);
    EXPECT_EQ(got.rounds, want.rounds) << "T=" << threads;
    EXPECT_EQ(got.messages, want.messages) << "T=" << threads;
    EXPECT_EQ(got.stats, want.stats) << "T=" << threads;
    EXPECT_EQ(par_alg->State(), serial_alg->State()) << "T=" << threads;
  }
}

struct DigestRunner : DigestAlgorithm {
  using DigestAlgorithm::DigestAlgorithm;
  const std::vector<uint64_t>& State() const { return digest_; }
};
struct PeelRunner : PeelLeaves {
  using PeelLeaves::PeelLeaves;
  const std::vector<int>& State() const { return mark_round_; }
};

TEST(ParallelNetworkTest, DigestStressUnevenSizes) {
  // n deliberately not divisible by the swept thread counts, including
  // n < T (empty shards) and n == 1.
  for (int n : {1, 2, 3, 5, 7, 97, 230, 1001}) {
    Graph g = UniformRandomTree(n, 3000 + n);
    auto ids = DefaultIds(n, 3100 + n);
    ExpectParallelMatchesSerial(
        g, ids, [&] { return std::make_unique<DigestRunner>(n); }, 64);
  }
}

TEST(ParallelNetworkTest, PeelStressMidRunHalts) {
  for (int n : {3, 41, 97, 513}) {
    Graph g = UniformRandomTree(n, 3200 + n);
    auto ids = DefaultIds(n, 3300 + n);
    ExpectParallelMatchesSerial(
        g, ids, [&] { return std::make_unique<PeelRunner>(g); }, 4 * n + 8);
  }
  // Star and path: the extreme degree distributions (one shard holds the
  // hub; per-shard work is maximally skewed).
  for (int n : {2, 50}) {
    for (int shape = 0; shape < 2; ++shape) {
      Graph g = shape == 0 ? Star(n) : Path(n);
      auto ids = DefaultIds(n, 3400 + n + shape);
      ExpectParallelMatchesSerial(
          g, ids, [&] { return std::make_unique<PeelRunner>(g); }, 4 * n + 8);
    }
  }
}

TEST(ParallelNetworkTest, RakeCompressBitIdenticalAllT) {
  for (int trial = 0; trial < 3; ++trial) {
    const int n = 100 + trial * 157;
    Graph tree = UniformRandomTree(n, 3500 + trial);
    auto ids = DefaultIds(n, 3600 + trial);
    for (int k : {2, 8}) {
      RakeCompressResult want = RunRakeCompress(tree, ids, k);
      for (int threads : {1, 2, 4, 8}) {
        Network net(tree, ids, threads);
        RakeCompressResult got = RunRakeCompress(net, k);
        EXPECT_EQ(got.iteration, want.iteration);
        EXPECT_EQ(got.compressed, want.compressed);
        EXPECT_EQ(got.engine_rounds, want.engine_rounds);
        EXPECT_EQ(got.messages, want.messages);
        EXPECT_EQ(got.round_stats, want.round_stats);
      }
    }
  }
}

TEST(ParallelNetworkTest, ReuseMatchesFreshEngine) {
  const int n = 200;
  Graph g = UniformRandomTree(n, 77);
  auto ids = DefaultIds(n, 78);
  Network reused(g, ids, 4);

  DigestRunner first(n);
  const RunOutcome a = RunOn(reused, first, 64);
  {
    PeelRunner peel(g);  // dirty the mailboxes with a different transcript
    reused.Run(peel, 4 * n + 8);
  }
  DigestRunner again(n);
  const RunOutcome b = RunOn(reused, again, 64);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.stats, b.stats);
  EXPECT_EQ(first.digest_, again.digest_);
}

TEST(ParallelNetworkTest, MaxRoundsThrowsAndEngineSurvives) {
  class Forever : public Algorithm {
   public:
    void OnRound(NodeContext& ctx) override { ctx.Broadcast(Message::Of(1)); }
  };
  const int n = 64;
  Graph g = UniformRandomTree(n, 11);
  auto ids = DefaultIds(n, 12);
  Network net(g, ids, 3);
  Forever forever;
  EXPECT_THROW(net.Run(forever, 5), std::runtime_error);
  // The engine re-initializes per Run: a normal algorithm still works.
  DigestRunner digest(n);
  Network serial(g, ids);
  DigestRunner serial_digest(n);
  EXPECT_EQ(net.Run(digest, 64), serial.Run(serial_digest, 64));
  EXPECT_EQ(digest.digest_, serial_digest.digest_);
}

TEST(ParallelNetworkTest, RejectsThreadCountsOutsidePoolRange) {
  const Graph g = UniformRandomTree(16, 5);
  const auto ids = DefaultIds(16, 6);
  EXPECT_THROW(Network(g, ids, 0), std::invalid_argument);
  EXPECT_THROW(Network(g, ids, support::ThreadPool::kMaxThreads + 1),
               std::invalid_argument);
}

TEST(ParallelNetworkTest, OnRoundExceptionPropagates) {
  class ThrowsAtRound2 : public Algorithm {
   public:
    void OnRound(NodeContext& ctx) override {
      if (ctx.round() == 2 && ctx.node() % 37 == 5) {
        throw std::domain_error("algorithm failure");
      }
      ctx.Broadcast(Message::Of(ctx.round()));
      if (ctx.round() >= 6) ctx.Halt();
    }
  };
  const int n = 120;
  Graph g = UniformRandomTree(n, 21);
  auto ids = DefaultIds(n, 22);
  Network net(g, ids, 4);
  ThrowsAtRound2 bad;
  EXPECT_THROW(net.Run(bad, 100), std::domain_error);
  DigestRunner ok(n);
  EXPECT_GT(net.Run(ok, 64), 0);  // usable after the aborted run
}

// NetworkOptions::relabel: the BFS-laid-out engine must be transcript-
// identical to the default layout, serially and sharded.
TEST(ParallelNetworkTest, RelabelBitIdentical) {
  NetworkOptions relabel;
  relabel.relabel = true;
  for (int n : {1, 2, 57, 400}) {
    Graph g = UniformRandomTree(n, 4000 + n);
    auto ids = DefaultIds(n, 4100 + n);

    DigestRunner plain_alg(n);
    Network plain(g, ids);
    const RunOutcome want = RunOn(plain, plain_alg, 64);

    DigestRunner relabeled_alg(n);
    Network relabeled(g, ids, relabel);
    const RunOutcome got = RunOn(relabeled, relabeled_alg, 64);
    EXPECT_EQ(got.rounds, want.rounds);
    EXPECT_EQ(got.messages, want.messages);
    EXPECT_EQ(got.stats, want.stats);
    EXPECT_EQ(relabeled_alg.digest_, plain_alg.digest_);

    for (int threads : {2, 3}) {
      DigestRunner par_alg(n);
      Network par(g, ids, threads, relabel);
      const RunOutcome par_got = RunOn(par, par_alg, 64);
      EXPECT_EQ(par_got.rounds, want.rounds) << "T=" << threads;
      EXPECT_EQ(par_got.messages, want.messages) << "T=" << threads;
      EXPECT_EQ(par_got.stats, want.stats) << "T=" << threads;
      EXPECT_EQ(par_alg.digest_, plain_alg.digest_) << "T=" << threads;
    }
  }
}

TEST(ParallelNetworkTest, RelabelRakeCompressOnForestUnion) {
  // Multi-component graphs exercise the BFS restart path.
  NetworkOptions relabel;
  relabel.relabel = true;
  Graph g = ForestUnion(300, 1, 31);  // a = 1: a real (multi-component) forest
  auto ids = DefaultIds(g.NumNodes(), 32);
  RakeCompressResult want = RunRakeCompress(g, ids, 4);
  Network net(g, ids, relabel);
  RakeCompressResult got = RunRakeCompress(net, 4);
  EXPECT_EQ(got.iteration, want.iteration);
  EXPECT_EQ(got.compressed, want.compressed);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.round_stats, want.round_stats);
}

// A k-sweep on one reused engine (the shape of the daemon's coalesced
// rake-compress pass and the Thm 12 k-sweep): every run must equal its
// fresh solo run, for every shard count, with runs of different lengths
// back to back (uneven k mix) and a repeated sweep on the same engine.
TEST(ParallelNetworkTest, ReusedEngineKSweepBitIdenticalAllT) {
  const int n = 257;
  Graph tree = UniformRandomTree(n, 5000);
  auto ids = DefaultIds(n, 5001);
  const std::vector<int> ks = {2, 3, 2, 16, 5};
  std::vector<RakeCompressResult> want;
  for (int k : ks) want.push_back(RunRakeCompress(tree, ids, k));
  for (int threads : {1, 2, 3, 8}) {
    Network net(tree, ids, threads);
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t b = 0; b < ks.size(); ++b) {
        const RakeCompressResult got = RunRakeCompress(net, ks[b]);
        const std::string at =
            "T=" + std::to_string(threads) + " k=" + std::to_string(ks[b]);
        EXPECT_EQ(got.iteration, want[b].iteration) << at;
        EXPECT_EQ(got.compressed, want[b].compressed) << at;
        EXPECT_EQ(got.engine_rounds, want[b].engine_rounds) << at;
        EXPECT_EQ(got.messages, want[b].messages) << at;
        EXPECT_EQ(got.round_stats, want[b].round_stats) << at;
      }
    }
  }
}

// Pipeline entry points' trailing thread count: same results as at the
// default T = 1 (the count only sizes the engine they construct).
TEST(ParallelNetworkTest, PipelineOverloadsMatchSerial) {
  const int n = 150;
  Graph g = UniformRandomTree(n, 6000);
  auto ids = DefaultIds(n, 6001);
  const int64_t space = int64_t{n} * n * n;

  LinialResult lin = RunLinial(g, ids, space);
  LinialResult lin_p = RunLinial(g, ids, space, 3);
  EXPECT_EQ(lin_p.colors, lin.colors);
  EXPECT_EQ(lin_p.rounds, lin.rounds);
  EXPECT_EQ(lin_p.messages, lin.messages);
  EXPECT_EQ(lin_p.round_stats, lin.round_stats);

  std::vector<int> parent(n, -1);
  {
    std::vector<char> seen(n, 0);
    std::vector<int> order = {0};
    seen[0] = 1;
    for (size_t i = 0; i < order.size(); ++i) {
      for (int u : g.Neighbors(order[i])) {
        if (!seen[u]) {
          seen[u] = 1;
          parent[u] = order[i];
          order.push_back(u);
        }
      }
    }
  }
  ColeVishkinResult cv = ColeVishkin3Color(g, ids, parent, space);
  ColeVishkinResult cv_p = ColeVishkin3Color(g, ids, parent, space, 4);
  EXPECT_EQ(cv_p.colors, cv.colors);
  EXPECT_EQ(cv_p.rounds, cv.rounds);
  EXPECT_EQ(cv_p.messages, cv.messages);
  EXPECT_EQ(cv_p.round_stats, cv.round_stats);

  MisProblem mis;
  DistributedSweepResult sweep =
      RunDistributedNodeSweep(mis, g, ids, lin.colors, lin.num_colors);
  DistributedSweepResult sweep_p = RunDistributedNodeSweep(
      mis, g, ids, lin.colors, lin.num_colors, 2);
  EXPECT_EQ(sweep_p.rounds, sweep.rounds);
  EXPECT_EQ(sweep_p.messages, sweep.messages);
  EXPECT_EQ(sweep_p.round_stats, sweep.round_stats);
  for (int e = 0; e < g.NumEdges(); ++e) {
    ASSERT_EQ(sweep_p.labeling.GetSlot(e, 0), sweep.labeling.GetSlot(e, 0));
    ASSERT_EQ(sweep_p.labeling.GetSlot(e, 1), sweep.labeling.GetSlot(e, 1));
  }

  Thm12Result thm = SolveNodeProblemOnTree(mis, g, ids, space, 4);
  Thm12Result thm_p = SolveNodeProblemOnTree(mis, g, ids, space, 4, 3);
  EXPECT_TRUE(thm_p.valid);
  EXPECT_EQ(thm_p.rounds_total, thm.rounds_total);
  EXPECT_EQ(thm_p.engine_messages, thm.engine_messages);
  EXPECT_EQ(thm_p.rake_compress.iteration, thm.rake_compress.iteration);
  for (int e = 0; e < g.NumEdges(); ++e) {
    ASSERT_EQ(thm_p.labeling.GetSlot(e, 0), thm.labeling.GetSlot(e, 0));
    ASSERT_EQ(thm_p.labeling.GetSlot(e, 1), thm.labeling.GetSlot(e, 1));
  }

  std::vector<Thm12Result> k_sweep =
      SolveNodeProblemOnTreeBatch(mis, g, ids, space, {2, 4, 9}, 2);
  Thm12Result want_k9 = SolveNodeProblemOnTree(mis, g, ids, space, 9);
  EXPECT_EQ(k_sweep[2].rounds_total, want_k9.rounds_total);
  EXPECT_EQ(k_sweep[2].engine_messages, want_k9.engine_messages);
}

// Epoch wrap guard parity with Network: a run started near INT32_MAX
// re-arms and still produces the right transcript.
TEST(ParallelNetworkTest, EpochWrapRearm) {
  const int n = 90;
  Graph g = UniformRandomTree(n, 7000);
  auto ids = DefaultIds(n, 7001);
  Network serial(g, ids);
  DigestRunner want(n);
  serial.Run(want, 64);

  Network par(g, ids, 3);
  par.set_epoch_for_testing(INT32_MAX - 3);  // forces the pre-run re-arm
  DigestRunner got(n);
  par.Run(got, 64);
  EXPECT_EQ(got.digest_, want.digest_);
  EXPECT_EQ(par.messages_delivered(), serial.messages_delivered());
}

// Wake-scheduled echo: even nodes act every round and broadcast every
// third; odd nodes sleep until kRounds and wake only on a message, which
// they echo before sleeping again.
class WakeEcho : public Algorithm {
 public:
  static constexpr int kRounds = 10;
  size_t StateBytes() const override { return sizeof(uint64_t); }
  bool WakeScheduled() const override { return true; }
  int InitialWakeRound(int node) const override {
    return node % 2 == 0 ? 0 : kRounds;
  }
  void InitState(int node, void* state) override {
    *static_cast<uint64_t*>(state) = node * 2654435761ULL + 1;
  }
  void OnRound(NodeContext& ctx) override {
    uint64_t& acc = ctx.State<uint64_t>();
    bool got = false;
    for (int p = 0; p < ctx.degree(); ++p) {
      const Message& m = ctx.Recv(p);
      if (m.present()) {
        acc = acc * 31 + static_cast<uint64_t>(m.word0) +
              static_cast<uint64_t>(m.word1) + static_cast<uint64_t>(p);
        got = true;
      }
    }
    if (ctx.round() >= kRounds) {
      ctx.Halt();
      return;
    }
    const auto word = static_cast<int64_t>(acc & 0x7fffffff);
    if (ctx.node() % 2 == 0) {
      if (ctx.round() % 3 == 0) ctx.Broadcast(Message::Of(word, ctx.round()));
      return;
    }
    if (got) ctx.Broadcast(Message::Of(word, -ctx.round()));
    ctx.SleepUntil(kRounds);
  }
};

// Both round loops write-prefetch the sends of the worklist entry 8 ahead,
// bounded by the shard's own range. Shards shorter than, equal to and just
// past that look-ahead, on the always-visit loop (rake-compress) and the
// wake-scheduled one, must keep the reference engine's content digest
// chain at every thread count, with relabel off and on.
TEST(ParallelNetworkTest, SendLookaheadShardBoundariesMatchReference) {
  constexpr int kLookahead = 8;
  NetworkOptions digest;
  digest.digest_messages = true;
  for (int n : {1, 2, kLookahead - 1, kLookahead, kLookahead + 1,
                2 * kLookahead + 1}) {
    for (int shape = 0; shape < 2; ++shape) {
      const Graph g = shape == 0 ? Path(n) : Star(n);
      const auto ids = DefaultIds(n, 8000 + 2 * n + shape);
      ReferenceNetwork ref_rc(g, ids, digest);
      const RakeCompressResult want_rc = RunRakeCompress(ref_rc, 2);
      ReferenceNetwork ref_wake(g, ids, digest);
      WakeEcho ref_echo;
      const int want_rounds = ref_wake.Run(ref_echo, 64);
      for (int threads : {1, 2, 3, 4}) {
        for (bool relabel : {false, true}) {
          NetworkOptions opt = digest;
          opt.relabel = relabel;
          const std::string tag = std::string(shape == 0 ? "path" : "star") +
                                  " n=" + std::to_string(n) +
                                  " T=" + std::to_string(threads) +
                                  (relabel ? " relabel" : "");
          Network rc(g, ids, threads, opt);
          const RakeCompressResult got_rc = RunRakeCompress(rc, 2);
          EXPECT_EQ(got_rc.compressed, want_rc.compressed) << tag;
          EXPECT_EQ(got_rc.messages, want_rc.messages) << tag;
          EXPECT_EQ(rc.round_digests(), ref_rc.round_digests()) << tag;
          Network wake(g, ids, threads, opt);
          WakeEcho echo;
          EXPECT_EQ(wake.Run(echo, 64), want_rounds) << tag;
          EXPECT_EQ(wake.messages_delivered(), ref_wake.messages_delivered())
              << tag;
          EXPECT_EQ(wake.round_digests(), ref_wake.round_digests()) << tag;
          if (n >= 2) {
            EXPECT_GT(wake.wakes(), 0) << tag << " never woke";
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace treelocal
