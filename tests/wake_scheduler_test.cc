// Wake-round scheduling (NodeContext::SleepUntil / Algorithm::WakeScheduled):
// the engine visits a node only in rounds where it declared it acts, waking
// it early whenever an observable message arrives. The contract under test:
//   * transcripts (round stats, message counts, digest chains, outputs) are
//     bit-identical to the always-visit path — only RoundStats::visits
//     shrinks — across every engine, relabel, and thread count;
//   * an incoming observable message always wakes a sleeping node for the
//     delivery round, even if it just re-slept (or re-parked) that round;
//   * sleeping past max_rounds is the structured MaxRoundsExceededError,
//     not a hang, and the engine stays reusable;
//   * FaultInjector::OnVisit fires per REAL visit, so the n-th-visit kill
//     site lands later in a scheduled run than in an always-visit one;
//   * engine reuse re-arms the calendar and the bucket-dedup stamps (round
//     numbers restart per run, so stale stamps must not swallow wakes);
//   * a mid-run checkpoint with populated wake buckets resumes
//     bit-identically on a different engine AND across the scheduled /
//     unscheduled boundary in both directions (the wake plane is data, but
//     honoring it is a resume-side choice).
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "src/graph/generators.h"
#include "src/local/network.h"
#include "src/local/reference_network.h"
#include "src/support/fault.h"
#include "src/support/rng.h"

namespace treelocal {
namespace {

using local::Algorithm;
using local::kNoWakeRound;
using local::MaxRoundsExceededError;
using local::Message;
using local::Network;
using local::NetworkOptions;
using local::NodeContext;
using local::ReferenceNetwork;

constexpr int kMaxRounds = 1 << 20;

// Staged sweep: node v broadcasts exactly once, in round rank(v), and every
// node halts in round K-1. Identical observable behavior on the scheduled
// and always-visit paths; under scheduling a node is visited at its rank
// round, at message wakes (a neighbor's broadcast), and at the final round.
class StagedSweep : public Algorithm {
 public:
  StagedSweep(int num_rounds, int mult) : k_(num_rounds), mult_(mult) {}

  bool WakeScheduled() const override { return true; }
  int InitialWakeRound(int node) const override { return Rank(node); }

  void OnRound(NodeContext& ctx) override {
    const int rank = Rank(ctx.node());
    const int r = ctx.round();
    if (r == rank) ctx.Broadcast(Message::Of(ctx.id()));
    if (r >= k_ - 1) {
      ctx.Halt();
      return;
    }
    // Message-woken early (or just acted): next action is my rank round if
    // still ahead, else the shared final round.
    ctx.SleepUntil(r < rank ? rank : k_ - 1);
  }

 private:
  int Rank(int node) const { return (node * mult_) % k_; }
  const int k_;
  const int mult_;
};

// Always-visit twin of StagedSweep (same transcript, no opt-in): the
// engine option alone must not schedule an algorithm that did not opt in.
class StagedSweepLegacy : public StagedSweep {
 public:
  using StagedSweep::StagedSweep;
  bool WakeScheduled() const override { return false; }
};

// Every node parks forever at round 0; the run must hit max_rounds.
class ParkForever : public Algorithm {
 public:
  bool WakeScheduled() const override { return true; }
  void OnRound(NodeContext& ctx) override { ctx.SleepUntil(kNoWakeRound); }
};

class HaltNowAlg : public Algorithm {
 public:
  void OnRound(NodeContext& ctx) override { ctx.Halt(); }
};

// Star poke: the center broadcasts in rounds 0 and 3 and halts in round 4;
// spokes park until a message arrives, count received messages in engine
// state, halt at the second one, and RE-PARK inside their first wake round.
// Scheduled visits per spoke: exactly two (both message wakes).
class StarPoke : public Algorithm {
 public:
  bool WakeScheduled() const override { return true; }
  int InitialWakeRound(int node) const override {
    return node == 0 ? 0 : kNoWakeRound;
  }
  size_t StateBytes() const override { return sizeof(int32_t); }
  void InitState(int, void* state) override {
    *static_cast<int32_t*>(state) = 0;
  }

  void OnRound(NodeContext& ctx) override {
    const int r = ctx.round();
    if (ctx.node() == 0) {
      if (r == 0 || r == 3) ctx.Broadcast(Message::Of(r + 1));
      if (r >= 4) {
        ctx.Halt();
        return;
      }
      ctx.SleepUntil(r < 3 ? 3 : 4);
      return;
    }
    int32_t& msgs = ctx.State<int32_t>();
    for (int p = 0; p < ctx.degree(); ++p) {
      if (ctx.Recv(p).present()) ++msgs;
    }
    if (msgs >= 2) {
      ctx.Halt();
      return;
    }
    ctx.SleepUntil(kNoWakeRound);  // re-park inside the wake round
  }
};

struct Transcript {
  std::vector<local::RoundStats> stats;
  std::vector<uint64_t> digests;
  int64_t messages = 0;
  int64_t visits = 0;
  int64_t active = 0;
};

template <typename Engine>
Transcript Capture(const Engine& net) {
  Transcript t;
  t.stats = net.round_stats();
  t.digests = net.round_digests();
  t.messages = net.messages_delivered();
  for (const auto& rs : net.round_stats()) {
    t.visits += rs.visits;
    t.active += rs.active_nodes;
  }
  return t;
}

// RoundStats::operator== covers only active/sent (visits are scheduling-
// dependent by design), so cross-mode comparisons use the full Transcript.
void ExpectSameTranscript(const Transcript& got, const Transcript& want) {
  EXPECT_EQ(got.stats, want.stats);
  EXPECT_EQ(got.digests, want.digests);
  EXPECT_EQ(got.messages, want.messages);
}

template <typename Engine>
std::string CheckpointBytes(const Engine& net) {
  std::ostringstream out;
  net.Checkpoint(out);
  return out.str();
}

template <typename Engine>
void ResumeBytes(Engine& net, const std::string& bytes) {
  std::istringstream in(bytes);
  net.Resume(in);
}

TEST(WakeSchedulerTest, ScheduledMatchesUnscheduledOnEveryEngine) {
  const int n = 180, K = 12;
  const Graph g = UniformRandomTree(n, 901);
  const auto ids = DefaultIds(n, 902);

  // Ground truth: always-visit serial run.
  NetworkOptions off;
  off.wake_scheduling = false;
  Network base(g, ids, off);
  StagedSweep base_alg(K, 7);
  ASSERT_EQ(base.Run(base_alg, kMaxRounds), K);
  EXPECT_FALSE(base.wake_scheduled());
  const Transcript want = Capture(base);
  EXPECT_EQ(want.visits, want.active);  // legacy visits every live node

  {
    Network net(g, ids);
    StagedSweep alg(K, 7);
    EXPECT_EQ(net.Run(alg, kMaxRounds), K);
    EXPECT_TRUE(net.wake_scheduled());
    const Transcript got = Capture(net);
    ExpectSameTranscript(got, want);
    EXPECT_LT(got.visits, want.visits);
    EXPECT_GT(net.wakes(), 0);
  }
  {
    NetworkOptions opt;
    opt.relabel = true;
    Network net(g, ids, opt);
    StagedSweep alg(K, 7);
    EXPECT_EQ(net.Run(alg, kMaxRounds), K);
    ExpectSameTranscript(Capture(net), want);
  }
  for (int t : {1, 2, 8}) {
    for (bool relabel : {false, true}) {
      NetworkOptions opt;
      opt.relabel = relabel;
      Network net(g, ids, t, opt);
      StagedSweep alg(K, 7);
      EXPECT_EQ(net.Run(alg, kMaxRounds), K);
      EXPECT_TRUE(net.wake_scheduled());
      const Transcript got = Capture(net);
      ExpectSameTranscript(got, want);
      EXPECT_LT(got.visits, want.visits);
    }
  }
  {
    ReferenceNetwork net(g, ids);
    StagedSweep alg(K, 7);
    EXPECT_EQ(net.Run(alg, kMaxRounds), K);
    EXPECT_TRUE(net.wake_scheduled());
    const Transcript got = Capture(net);
    ExpectSameTranscript(got, want);
    EXPECT_LT(got.visits, want.visits);
  }
  {
    // An algorithm that does not opt in runs always-visit even with the
    // engine option on — still transcript-correct, just without the savings.
    Network net(g, ids, 2);
    StagedSweepLegacy alg(K, 7);
    EXPECT_EQ(net.Run(alg, kMaxRounds), K);
    EXPECT_FALSE(net.wake_scheduled());
    const Transcript got = Capture(net);
    ExpectSameTranscript(got, want);
    EXPECT_EQ(got.visits, want.visits);
  }
}

TEST(WakeSchedulerTest, MessageWakesParkedNodeAndReParkHolds) {
  const int n = 40;
  const Graph g = Star(n);
  const auto ids = DefaultIds(n, 17);

  NetworkOptions off;
  off.wake_scheduling = false;
  Network base(g, ids, off);
  StarPoke base_alg;
  const int rounds = base.Run(base_alg, kMaxRounds);
  EXPECT_EQ(rounds, 5);  // center halts in round 4
  const Transcript want = Capture(base);

  for (int t : {1, 3}) {
    Network net(g, ids, t);
    StarPoke alg;
    EXPECT_EQ(net.Run(alg, kMaxRounds), rounds);
    const Transcript got = Capture(net);
    ExpectSameTranscript(got, want);
    // Center: rounds 0, 3, 4. Each spoke: exactly its two message wakes.
    EXPECT_EQ(got.visits, 3 + 2 * (n - 1));
    EXPECT_EQ(net.wakes(), 2 * (n - 1));
  }
  {
    Network net(g, ids);
    StarPoke alg;
    EXPECT_EQ(net.Run(alg, kMaxRounds), rounds);
    EXPECT_EQ(Capture(net).visits, 3 + 2 * (n - 1));
  }
  {
    ReferenceNetwork net(g, ids);
    StarPoke alg;
    EXPECT_EQ(net.Run(alg, kMaxRounds), rounds);
    EXPECT_EQ(Capture(net).visits, 3 + 2 * (n - 1));
  }
}

TEST(WakeSchedulerTest, SleepPastMaxRoundsIsStructuredNotAHang) {
  const int n = 24;
  const Graph g = BalancedRegularTree(n, 3);
  const auto ids = DefaultIds(n, 5);

  const auto drill = [&](auto& net) {
    ParkForever park;
    try {
      net.Run(park, 10);
      FAIL() << "parked run completed";
    } catch (const MaxRoundsExceededError& e) {
      EXPECT_EQ(e.round(), 10);
      EXPECT_EQ(e.active_nodes(), n);
    }
    // Rounds tick with zero visits while everyone sleeps; the engine stays
    // reusable afterwards.
    ASSERT_EQ(net.round_stats().size(), 10u);
    EXPECT_EQ(net.round_stats().back().active_nodes, n);
    EXPECT_EQ(net.round_stats().back().visits, 0);
    HaltNowAlg halt;
    EXPECT_EQ(net.Run(halt, 4), 1);
  };
  Network serial(g, ids);
  drill(serial);
  Network parallel(g, ids, 2);
  drill(parallel);
  ReferenceNetwork reference(g, ids);
  drill(reference);
}

TEST(WakeSchedulerTest, ThrowAtVisitCountsOnlyRealVisits) {
  const int n = 120, K = 10;
  const Graph g = UniformRandomTree(n, 33);
  const auto ids = DefaultIds(n, 34);

  Network clean(g, ids);
  StagedSweep clean_alg(K, 7);
  clean.Run(clean_alg, kMaxRounds);
  const Transcript t = Capture(clean);
  ASSERT_LT(t.visits, t.active);

  // The t.visits-th visit is the scheduled run's LAST dispatch, which
  // happens in the final round; the always-visit run burns through the same
  // budget on idle visits and dies strictly earlier.
  support::FaultInjector sched_fault =
      support::FaultInjector::ThrowAtVisit(t.visits);
  NetworkOptions sched_opt;
  sched_opt.fault = &sched_fault;
  Network sched(g, ids, sched_opt);
  StagedSweep sched_alg(K, 7);
  int sched_round = -1;
  try {
    sched.Run(sched_alg, kMaxRounds);
    FAIL() << "visit fault did not fire";
  } catch (const support::FaultInjectedError& e) {
    sched_round = e.round();
  }
  EXPECT_EQ(sched_round, K - 1);

  support::FaultInjector legacy_fault =
      support::FaultInjector::ThrowAtVisit(t.visits);
  NetworkOptions legacy_opt;
  legacy_opt.fault = &legacy_fault;
  legacy_opt.wake_scheduling = false;
  Network legacy(g, ids, legacy_opt);
  StagedSweep legacy_alg(K, 7);
  int legacy_round = -1;
  try {
    legacy.Run(legacy_alg, kMaxRounds);
    FAIL() << "visit fault did not fire";
  } catch (const support::FaultInjectedError& e) {
    legacy_round = e.round();
  }
  EXPECT_LT(legacy_round, sched_round);
}

TEST(WakeSchedulerTest, EngineReuseRearmsCalendarAndDedupStamps) {
  const int n = 150, K = 14;
  const Graph g = UniformRandomTree(n, 6000);
  const auto ids = DefaultIds(n, 6001);

  // Three back-to-back scheduled runs on ONE engine, with an always-visit
  // run wedged in between. Round numbers restart at 0 every run, so stale
  // round-keyed scheduler state (calendar buckets, parallel bucket-dedup
  // stamps) from run i must not swallow wake visits in run i+1 — the
  // regression here was a parallel run losing nodes forever to a stale
  // stamp that happened to equal one of the next run's round numbers.
  const auto drill = [&](auto& net) {
    StagedSweep first(K, 7);
    net.Run(first, kMaxRounds);
    const Transcript want = Capture(net);
    HaltNowAlg wedge;
    net.Run(wedge, 4);
    for (int rerun = 0; rerun < 2; ++rerun) {
      StagedSweep again(K, 7);
      net.Run(again, kMaxRounds);
      const Transcript got = Capture(net);
      ExpectSameTranscript(got, want);
      EXPECT_EQ(got.visits, want.visits) << "rerun " << rerun;
    }
  };
  Network serial(g, ids);
  drill(serial);
  Network parallel(g, ids, 3);
  drill(parallel);
  ReferenceNetwork reference(g, ids);
  drill(reference);
}

// A scheduled run that parks nodes arms the Send-side wake hook; the next
// always-visit run on the same engine must send through the plain path
// (its shards keep no wake-candidate lists), with the transcript of a fresh
// engine.
TEST(WakeSchedulerTest, AlwaysVisitRunAfterParkedRunSendsNormally) {
  class Flood : public Algorithm {
   public:
    void OnRound(NodeContext& ctx) override {
      if (ctx.round() >= 3) {
        ctx.Halt();
        return;
      }
      ctx.Broadcast(Message::Of(ctx.id() + ctx.round()));
    }
  };
  const int n = 60;
  const Graph g = Star(n);
  const auto ids = DefaultIds(n, 29);
  Network fresh(g, ids);
  Flood want_alg;
  fresh.Run(want_alg, kMaxRounds);
  const Transcript want = Capture(fresh);
  for (int t : {1, 3}) {
    Network net(g, ids, t);
    StarPoke poke;
    net.Run(poke, kMaxRounds);
    ASSERT_GT(net.wakes(), 0);  // the hook was armed
    Flood flood;
    net.Run(flood, kMaxRounds);
    const Transcript got = Capture(net);
    ExpectSameTranscript(got, want);
    EXPECT_EQ(got.visits, want.visits) << "T=" << t;
  }
}

TEST(WakeSchedulerTest, MidSweepCheckpointResumesAcrossEnginesAndModes) {
  const int n = 160, K = 16;
  const Graph g = UniformRandomTree(n, 77);
  const auto ids = DefaultIds(n, 78);

  // Clean scheduled run end-to-end: the target transcript.
  Network clean(g, ids);
  StagedSweep clean_alg(K, 7);
  ASSERT_EQ(clean.Run(clean_alg, kMaxRounds), K);
  const Transcript want = Capture(clean);
  const std::string want_bytes = CheckpointBytes(clean);

  // Pause mid-sweep with calendars still holding future wake buckets.
  Network paused(g, ids);
  StagedSweep paused_alg(K, 7);
  paused.RunUntil(paused_alg, kMaxRounds, K / 2);
  ASSERT_TRUE(paused.paused());
  const std::string mid = CheckpointBytes(paused);

  {
    // Same engine kind, scheduled resume: byte-identical finish.
    Network net(g, ids);
    StagedSweep alg(K, 7);
    ResumeBytes(net, mid);
    EXPECT_EQ(net.Run(alg, kMaxRounds), K);
    EXPECT_TRUE(net.wake_scheduled());
    ExpectSameTranscript(Capture(net), want);
    EXPECT_EQ(CheckpointBytes(net), want_bytes);
  }
  {
    // Different engine, scheduled resume.
    Network net(g, ids, 2);
    StagedSweep alg(K, 7);
    ResumeBytes(net, mid);
    EXPECT_EQ(net.Run(alg, kMaxRounds), K);
    EXPECT_TRUE(net.wake_scheduled());
    ExpectSameTranscript(Capture(net), want);
  }
  {
    // Scheduled checkpoint, UNSCHEDULED resume: the wake plane is data the
    // resumed engine is free to ignore — transcript still lands identical.
    NetworkOptions off;
    off.wake_scheduling = false;
    Network net(g, ids, off);
    StagedSweep alg(K, 7);
    ResumeBytes(net, mid);
    EXPECT_EQ(net.Run(alg, kMaxRounds), K);
    EXPECT_FALSE(net.wake_scheduled());
    const Transcript got = Capture(net);
    ExpectSameTranscript(got, want);
    EXPECT_GT(got.visits, want.visits);  // idle visits are back
  }
  {
    // Unscheduled checkpoint, SCHEDULED resume: every live node's recorded
    // wake round is the snapshot round, so the scheduler starts from "all
    // awake" and re-buckets as nodes sleep — still bit-identical.
    NetworkOptions off;
    off.wake_scheduling = false;
    Network unsched(g, ids, off);
    StagedSweep unsched_alg(K, 7);
    unsched.RunUntil(unsched_alg, kMaxRounds, K / 2);
    ASSERT_TRUE(unsched.paused());
    const std::string mid_unsched = CheckpointBytes(unsched);

    Network net(g, ids);
    StagedSweep alg(K, 7);
    ResumeBytes(net, mid_unsched);
    EXPECT_EQ(net.Run(alg, kMaxRounds), K);
    EXPECT_TRUE(net.wake_scheduled());
    const Transcript got = Capture(net);
    ExpectSameTranscript(got, want);
    // No byte-identity claim here: the snapshot's round history records the
    // visits that actually happened — the first half ran always-visit, and
    // the resume round itself still visits every live node (the unscheduled
    // checkpoint marks them all awake at the snapshot round). From the
    // round after, the calendar has re-formed and visits match.
    for (size_t r = K / 2 + 1; r < got.stats.size(); ++r) {
      EXPECT_EQ(got.stats[r].visits, want.stats[r].visits) << r;
    }
  }
}

}  // namespace
}  // namespace treelocal
