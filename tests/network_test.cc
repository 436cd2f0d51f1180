#include <gtest/gtest.h>

#include <stdexcept>

#include "src/graph/generators.h"
#include "src/local/network.h"
#include "src/support/rng.h"

namespace treelocal {
namespace {

using local::Algorithm;
using local::Message;
using local::Network;
using local::NodeContext;

// Halts immediately; 1 round total.
class HaltNow : public Algorithm {
 public:
  void OnRound(NodeContext& ctx) override { ctx.Halt(); }
};

// Every node broadcasts its ID, collects neighbor IDs next round, halts.
class CollectNeighborIds : public Algorithm {
 public:
  explicit CollectNeighborIds(int n) : collected_(n) {}
  void OnRound(NodeContext& ctx) override {
    if (ctx.round() == 0) {
      ctx.Broadcast(Message::Of(ctx.id()));
      return;
    }
    for (int p = 0; p < ctx.degree(); ++p) {
      collected_[ctx.node()].push_back(ctx.Recv(p).word0);
    }
    ctx.Halt();
  }
  std::vector<std::vector<int64_t>> collected_;
};

// Counts rounds until a token starting at node 0 reaches everyone (BFS
// flood); each node halts one round after it first holds the token.
class Flood : public Algorithm {
 public:
  explicit Flood(int n) : has_token_(n, false) {}
  void OnRound(NodeContext& ctx) override {
    int v = ctx.node();
    if (!has_token_[v]) {
      if (v == 0 && ctx.round() == 0) {
        has_token_[v] = true;
      } else {
        for (int p = 0; p < ctx.degree(); ++p) {
          if (ctx.Recv(p).present()) has_token_[v] = true;
        }
      }
    }
    if (has_token_[v]) {
      ctx.Broadcast(Message::Of(1));
      ctx.Halt();
    }
  }
  std::vector<bool> has_token_;
};

TEST(NetworkTest, HaltNowRunsOneRound) {
  Graph g = Path(5);
  Network net(g, DefaultIds(5, 1));
  HaltNow alg;
  EXPECT_EQ(net.Run(alg, 10), 1);
}

TEST(NetworkTest, MessageDeliveryToCorrectPorts) {
  Graph g = Star(5);
  auto ids = DefaultIds(5, 2);
  Network net(g, ids);
  CollectNeighborIds alg(5);
  EXPECT_EQ(net.Run(alg, 10), 2);
  // Center got all leaf IDs; leaves got the center ID.
  ASSERT_EQ(alg.collected_[0].size(), 4u);
  std::multiset<int64_t> got(alg.collected_[0].begin(),
                             alg.collected_[0].end());
  std::multiset<int64_t> want(ids.begin() + 1, ids.end());
  EXPECT_EQ(got, want);
  for (int leaf = 1; leaf < 5; ++leaf) {
    ASSERT_EQ(alg.collected_[leaf].size(), 1u);
    EXPECT_EQ(alg.collected_[leaf][0], ids[0]);
  }
}

TEST(NetworkTest, FloodTakesEccentricityRounds) {
  // On a path rooted at an end, the token needs n-1 hops; every node halts
  // the round it receives it, so total rounds = n.
  const int n = 9;
  Graph g = Path(n);
  Network net(g, DefaultIds(n, 3));
  Flood alg(n);
  EXPECT_EQ(net.Run(alg, 100), n);
}

TEST(NetworkTest, MessagesCounted) {
  Graph g = Path(3);
  Network net(g, DefaultIds(3, 4));
  CollectNeighborIds alg(3);
  net.Run(alg, 10);
  // Round 0: each of 3 nodes broadcasts on its ports: 2 + 2 = 4 directed
  // messages total.
  EXPECT_EQ(net.messages_delivered(), 4);
}

TEST(NetworkTest, ThrowsWhenMaxRoundsExceeded) {
  class NeverHalt : public Algorithm {
   public:
    void OnRound(NodeContext&) override {}
  };
  Graph g = Path(3);
  Network net(g, DefaultIds(3, 5));
  NeverHalt alg;
  EXPECT_THROW(net.Run(alg, 5), std::runtime_error);
}

TEST(NetworkTest, HaltedNodesFallSilent) {
  // Node 0 halts at round 0 after broadcasting; node 1 checks that the
  // channel is empty from round 2 on.
  class SilenceCheck : public Algorithm {
   public:
    void OnRound(NodeContext& ctx) override {
      if (ctx.node() == 0) {
        ctx.Broadcast(Message::Of(99));
        ctx.Halt();
        return;
      }
      if (ctx.round() == 1) {
        saw_message = ctx.Recv(0).present();
      } else if (ctx.round() == 2) {
        silent_after_halt = !ctx.Recv(0).present();
        ctx.Halt();
      }
    }
    bool saw_message = false;
    bool silent_after_halt = false;
  };
  Graph g = Path(2);
  Network net(g, DefaultIds(2, 6));
  SilenceCheck alg;
  net.Run(alg, 10);
  EXPECT_TRUE(alg.saw_message);
  EXPECT_TRUE(alg.silent_after_halt);
}

TEST(NetworkTest, DeterministicTranscript) {
  Graph g = UniformRandomTree(64, 10);
  auto ids = DefaultIds(64, 11);
  Network net1(g, ids), net2(g, ids);
  CollectNeighborIds a1(64), a2(64);
  EXPECT_EQ(net1.Run(a1, 10), net2.Run(a2, 10));
  EXPECT_EQ(a1.collected_, a2.collected_);
  EXPECT_EQ(net1.messages_delivered(), net2.messages_delivered());
}

TEST(NetworkTest, ContextExposesModelKnowledge) {
  class Probe : public Algorithm {
   public:
    void OnRound(NodeContext& ctx) override {
      if (ctx.node() == 0) {
        n = ctx.n();
        delta = ctx.max_degree();
        deg = ctx.degree();
      }
      ctx.Halt();
    }
    int n = 0, delta = 0, deg = 0;
  };
  Graph g = Star(7);
  Network net(g, DefaultIds(7, 12));
  Probe alg;
  net.Run(alg, 5);
  EXPECT_EQ(alg.n, 7);
  EXPECT_EQ(alg.delta, 6);
  EXPECT_EQ(alg.deg, 6);
}

// Regression for the epoch wrap guard: with the epoch stamped to just below
// INT32_MAX, a Run must re-arm the mailboxes once and still deliver messages
// correctly (the old 32-bit guard `INT32_MAX - max_rounds - 4` went negative
// for max_rounds near INT32_MAX, and after a re-arm a maximal run could push
// the stamp past INT32_MAX mid-run).
TEST(NetworkTest, EpochNearWrapRearmsAndStaysCorrect) {
  const int n = 64;
  Graph g = UniformRandomTree(n, 5);
  auto ids = DefaultIds(n, 6);

  // Ground truth from a fresh engine.
  Network fresh(g, ids);
  CollectNeighborIds expect(n);
  int expect_rounds = fresh.Run(expect, 10);

  Network net(g, ids);
  // Dirty the mailboxes with real payloads first, then push the epoch to the
  // brink: the run crosses the wrap threshold mid-run, so the per-round
  // rebase must fire — preserving the in-flight round's messages while none
  // of the stale payloads (stamps far below the epoch) leak.
  CollectNeighborIds warm(n);
  net.Run(warm, 10);
  net.set_epoch_for_testing(INT32_MAX - 5);
  CollectNeighborIds alg(n);
  EXPECT_EQ(net.Run(alg, 10), expect_rounds);
  EXPECT_EQ(alg.collected_, expect.collected_);
  EXPECT_EQ(net.messages_delivered(), fresh.messages_delivered());
  // Re-armed: the epoch restarted near 1 instead of marching past the
  // brink. The invariant is max_rounds-independent: the pre-run guard
  // re-arms at INT32_MAX - 4, and the per-round rebase fires at
  // INT32_MAX - 2, so a live stamp never exceeds INT32_MAX - 3.
  EXPECT_LT(net.epoch_for_testing(), 100);
}

// Abandon drops a paused run: the next run, with any algorithm, starts
// fresh and matches a run on a fresh engine (the daemon stops a group this
// way once all of its requesters have cancelled).
TEST(NetworkTest, AbandonedPausedRunLeavesNoTrace) {
  const int n = 40;
  Graph g = Path(n);
  auto ids = DefaultIds(n, 9);
  Network fresh(g, ids);
  CollectNeighborIds want(n);
  const int want_rounds = fresh.Run(want, 10);

  Network net(g, ids);
  Flood flood(n);
  EXPECT_EQ(net.RunUntil(flood, 100, 3), 3);
  ASSERT_TRUE(net.paused());
  net.Abandon();
  EXPECT_FALSE(net.paused());
  CollectNeighborIds got(n);
  EXPECT_EQ(net.Run(got, 10), want_rounds);
  EXPECT_EQ(got.collected_, want.collected_);
  EXPECT_EQ(net.messages_delivered(), fresh.messages_delivered());
  EXPECT_EQ(net.round_stats(), fresh.round_stats());
  EXPECT_EQ(net.round_digests(), fresh.round_digests());
}

// A huge max_rounds must neither trip the guard into re-arming on every call
// (the old negative-threshold bug) nor be able to overflow the stamp: the
// wrap checks are independent of max_rounds.
TEST(NetworkTest, HugeMaxRoundsIsSafe) {
  const int n = 32;
  Graph g = UniformRandomTree(n, 7);
  auto ids = DefaultIds(n, 8);
  Network net(g, ids);

  CollectNeighborIds a1(n);
  net.Run(a1, INT32_MAX);
  const int32_t epoch_after_first = net.epoch_for_testing();
  CollectNeighborIds a2(n);
  net.Run(a2, INT32_MAX);
  // Epochs advance monotonically across runs (no spurious re-arm resetting
  // them to 1 every call), and the transcripts stay correct.
  EXPECT_GT(net.epoch_for_testing(), epoch_after_first);
  EXPECT_EQ(a1.collected_, a2.collected_);

  // From an epoch where a full-length clamped run would overflow, the guard
  // must re-arm first; afterwards a run is still correct.
  net.set_epoch_for_testing(INT32_MAX - 1);
  CollectNeighborIds a3(n);
  net.Run(a3, INT32_MAX);
  EXPECT_EQ(a3.collected_, a1.collected_);
  EXPECT_LT(net.epoch_for_testing(), 100);
}

}  // namespace
}  // namespace treelocal
