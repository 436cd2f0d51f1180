// Snapshot bytes pinned across engine revisions. Each case pauses a run
// mid-way and hashes the raw Checkpoint output (Fnv1a64 over every byte,
// integrity trailer included). The expected values were recorded with the
// separate serial (T = 1) and sharded (T = 3) solo engines that Network
// replaced, so they also pin that the merge kept snapshots byte-identical.
// A change that moves any of them changes what a paused run records.
//
// Cases: rake-compress paused before round 4, and a wake-scheduled staged
// sweep (state plane, sleeps, parks and message wakes) paused mid-run, on a
// uniform and a recursive tree of 2^12 nodes, at T = 1 and T = 3, relabel
// off and on.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/rake_compress.h"
#include "src/graph/generators.h"
#include "src/local/network.h"
#include "src/support/digest.h"
#include "src/support/rng.h"

namespace treelocal {
namespace {

using local::Algorithm;
using local::kNoWakeRound;
using local::Message;
using local::Network;
using local::NetworkOptions;
using local::NodeContext;

constexpr int kN = 1 << 12;
constexpr int kMaxRounds = 1000;

// Node v acts at round Rank(v): it broadcasts what it has heard so far and
// then either sleeps until the last round or (odd ranks) parks until a
// message arrives. Every receive is folded into the node's state slot, so
// the snapshot's state plane, wake plane and deliverables all carry
// content.
class StagedSweep : public Algorithm {
 public:
  struct State {
    int64_t heard = 0;
    int32_t visits = 0;
    int32_t pad = 0;
  };

  explicit StagedSweep(int num_rounds) : k_(num_rounds) {}

  size_t StateBytes() const override { return sizeof(State); }
  void InitState(int node, void* state) override {
    static_cast<State*>(state)->heard = node;
  }
  bool WakeScheduled() const override { return true; }
  int InitialWakeRound(int node) const override {
    return node % 11 == 0 ? kNoWakeRound : Rank(node);
  }

  void OnRound(NodeContext& ctx) override {
    State& st = ctx.State<State>();
    ++st.visits;
    for (int p = 0; p < ctx.degree(); ++p) {
      const Message& m = ctx.Recv(p);
      if (m.present()) st.heard = st.heard * 31 + m.word0;
    }
    const int r = ctx.round();
    const int rank = Rank(ctx.node());
    if (r == rank) ctx.Broadcast(Message::Of(st.heard, ctx.id()));
    if (r >= k_ - 1) {
      ctx.Halt();
      return;
    }
    if (r < rank) {
      ctx.SleepUntil(rank);
    } else {
      ctx.SleepUntil(rank % 2 == 1 ? kNoWakeRound : k_ - 1);
    }
  }

 private:
  int Rank(int node) const { return (node * 7919) % k_; }
  const int k_;
};

uint64_t PausedCheckpointHash(const Graph& g, const std::vector<int64_t>& ids,
                              bool sweep, int threads, bool relabel) {
  NetworkOptions opt;
  opt.relabel = relabel;
  Network net(g, ids, threads, opt);
  std::unique_ptr<Algorithm> alg;
  int pause = 4;
  if (sweep) {
    alg = std::make_unique<StagedSweep>(24);
    pause = 9;
  } else {
    alg = MakeRakeCompressAlgorithm(g, 3);
  }
  net.RunUntil(*alg, kMaxRounds, pause);
  EXPECT_TRUE(net.paused());
  std::ostringstream out;
  net.Checkpoint(out);
  const std::string bytes = out.str();
  return support::Fnv1a64(bytes.data(), bytes.size());
}

struct PinnedCase {
  TreeFamily family;
  bool sweep;
  int threads;
  bool relabel;
  uint64_t hash;
};

TEST(CheckpointBytesTest, MatchesPinnedHashes) {
  const std::vector<PinnedCase> cases = {
      {TreeFamily::kUniform, false, 1, false, 0xd0a5c935ae47717dull},
      {TreeFamily::kUniform, false, 1, true, 0xd0a5c935ae47717dull},
      {TreeFamily::kUniform, false, 3, false, 0xa30fa32ae78927a2ull},
      {TreeFamily::kUniform, false, 3, true, 0xa30fa32ae78927a2ull},
      {TreeFamily::kUniform, true, 1, false, 0x9bc7c984b108b40full},
      {TreeFamily::kUniform, true, 1, true, 0x9bc7c984b108b40full},
      {TreeFamily::kUniform, true, 3, false, 0x7f9e6cabd2af873full},
      {TreeFamily::kUniform, true, 3, true, 0x7f9e6cabd2af873full},
      {TreeFamily::kRecursive, false, 1, false, 0xf4143684198cc590ull},
      {TreeFamily::kRecursive, false, 1, true, 0xf4143684198cc590ull},
      {TreeFamily::kRecursive, false, 3, false, 0x30d95fc54150f788ull},
      {TreeFamily::kRecursive, false, 3, true, 0x30d95fc54150f788ull},
      {TreeFamily::kRecursive, true, 1, false, 0x18068e00d77a730cull},
      {TreeFamily::kRecursive, true, 1, true, 0x18068e00d77a730cull},
      {TreeFamily::kRecursive, true, 3, false, 0x956bb0642e23405eull},
      {TreeFamily::kRecursive, true, 3, true, 0x956bb0642e23405eull},
  };
  ASSERT_EQ(cases.size(), 16u);
  for (const PinnedCase& c : cases) {
    const Graph g = MakeTree(c.family, kN, 7);
    const std::vector<int64_t> ids = DefaultIds(kN, 8);
    SCOPED_TRACE(TreeFamilyName(c.family) + (c.sweep ? " sweep" : " rc") +
                 " T=" + std::to_string(c.threads) +
                 " relabel=" + std::to_string(c.relabel));
    EXPECT_EQ(PausedCheckpointHash(g, ids, c.sweep, c.threads, c.relabel),
              c.hash);
  }
}

}  // namespace
}  // namespace treelocal
