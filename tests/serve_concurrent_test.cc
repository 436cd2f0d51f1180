// Concurrent-serving correctness for treelocald: N client threads firing
// mixed problems at one in-process daemon must each get results
// bit-identical to a solo engine run of their workload — batch = concurrent
// users is only sound if coalescing is transcript-invisible. Also pins
// queue-level cancellation (a cancelled request leaves its batch-mates
// untouched), per-request round budgets, coalescing statistics, and the
// bad-request surface.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/decomposition.h"
#include "src/core/rake_compress.h"
#include "src/core/transform_edge.h"
#include "src/core/transform_node.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/local/network.h"
#include "src/problems/coloring.h"
#include "src/problems/edge_coloring.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/support/digest.h"

namespace treelocal::serve {
namespace {

uint64_t FoldDigest(const std::vector<local::RoundStats>& stats) {
  uint64_t d = support::kDigestSeed;
  for (const auto& rs : stats) {
    d = support::ChainDigest(d, rs.active_nodes, rs.messages_sent, 0);
  }
  return d;
}

std::vector<int64_t> IotaIds(int n) {
  std::vector<int64_t> ids(n);
  for (int i = 0; i < n; ++i) ids[i] = i;
  return ids;
}

// The expected engine-level answer for one daemon request, computed from
// the solo library entry points (which the engine bit-identity tests pin
// against Network::Run).
struct Expected {
  uint32_t engine_rounds = 0;
  int64_t messages = 0;
  uint64_t digest = 0;
};

Expected ExpectRake(const Graph& g, int k) {
  RakeCompressResult r = RunRakeCompress(g, IotaIds(g.NumNodes()), k);
  return {(uint32_t)r.engine_rounds, r.messages, FoldDigest(r.round_stats)};
}

Expected ExpectThm12(const Graph& g, int k) {
  ColoringProblem problem(ColoringProblem::Mode::kDeltaPlusOne,
                          g.MaxDegree());
  Thm12Result r = SolveNodeProblemOnTree(problem, g, IotaIds(g.NumNodes()),
                                         g.NumNodes(), k);
  EXPECT_TRUE(r.valid) << r.why;
  return {(uint32_t)r.rake_compress.engine_rounds, r.engine_messages,
          FoldDigest(r.rake_compress.round_stats)};
}

Expected ExpectDecomp(const Graph& g, int a, int k) {
  DecompositionResult r =
      RunDecomposition(g, IotaIds(g.NumNodes()), a, 2 * a, k);
  return {(uint32_t)r.engine_rounds, r.messages, FoldDigest(r.round_stats)};
}

class ServeConcurrentTest : public ::testing::Test {
 protected:
  void StartServer(const Server::Options& opt) {
    server_ = std::make_unique<Server>(opt);
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
  }

  std::unique_ptr<Client> Connect() {
    auto c = std::make_unique<Client>();
    std::string error;
    EXPECT_TRUE(c->Connect("127.0.0.1", server_->port(), &error)) << error;
    return c;
  }

  uint64_t Register(Client& c, const Graph& g) {
    uint64_t key = 0;
    bool fresh = false;
    std::string error;
    EXPECT_TRUE(c.RegisterGraph(g, {}, &key, &fresh, &error)) << error;
    return key;
  }

  std::unique_ptr<Server> server_;
};

// Eight closed-loop client threads, mixed kinds and parameters, two
// resident graphs. Every response must match the solo-run expectation
// exactly: rounds, messages, and digest chain.
TEST_F(ServeConcurrentTest, EightClientsMixedProblemsBitIdentical) {
  StartServer({});
  const Graph tree1 = UniformRandomTree(257, 11);
  const Graph tree2 = UniformRandomTree(180, 23);

  // (graph index, kind, k) -> expected.
  std::map<std::tuple<int, SolveKind, int>, Expected> want;
  const std::vector<int> rake_ks = {2, 3, 4, 8};
  for (int gi = 0; gi < 2; ++gi) {
    const Graph& g = gi == 0 ? tree1 : tree2;
    for (int k : rake_ks) {
      want[{gi, SolveKind::kRakeCompress, k}] = ExpectRake(g, k);
    }
    want[{gi, SolveKind::kThm12Node, 3}] = ExpectThm12(g, 3);
    want[{gi, SolveKind::kDecomposition, 5}] = ExpectDecomp(g, 1, 5);
  }

  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 6;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto c = Connect();
      if (!c->connected()) {
        failures[t] = "connect failed";
        return;
      }
      const uint64_t keys[2] = {Register(*c, tree1), Register(*c, tree2)};
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const int gi = (t + i) % 2;
        SolveSpec spec;
        switch ((t + i) % 4) {
          case 0:
          case 1:
            spec.kind = SolveKind::kRakeCompress;
            spec.k = rake_ks[(t * kRequestsPerThread + i) % rake_ks.size()];
            break;
          case 2:
            spec.kind = SolveKind::kThm12Node;
            spec.problem = ProblemId::kColoringDeltaPlusOne;
            spec.k = 3;
            break;
          case 3:
            spec.kind = SolveKind::kDecomposition;
            spec.a = 1;
            spec.k = 5;
            break;
        }
        SolveResult result;
        std::string error;
        if (!c->SolveAndWait(keys[gi], spec, &result, &error)) {
          failures[t] = error;
          return;
        }
        const Expected& e = want.at({gi, spec.kind, spec.k});
        if (result.engine_rounds != e.engine_rounds ||
            result.messages != e.messages || result.digest != e.digest) {
          failures[t] = "mismatch vs solo run (kind " +
                        std::to_string((int)spec.kind) + " k " +
                        std::to_string(spec.k) + ")";
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], "") << "thread " << t;
  }

  auto c = Connect();
  ServerStats stats;
  std::string error;
  ASSERT_TRUE(c->Stats(&stats, &error)) << error;
  EXPECT_EQ(stats.requests, (uint64_t)kThreads * kRequestsPerThread);
  EXPECT_EQ(stats.completed, stats.requests);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(stats.graphs, 2u);  // 16 registrations coalesced onto 2 keys
  server_->Stop();
}

// Deterministic coalescing: a long-running head request occupies the
// dispatcher while six compatible requests pile up behind it; when the
// head finishes, the sweep must take all six in ONE engine pass, and every
// result must still equal its solo run.
TEST_F(ServeConcurrentTest, QueuedRequestsCoalesceIntoOnePass) {
  StartServer({});
  const Graph big = UniformRandomTree(200000, 3);
  const Graph small = UniformRandomTree(123, 7);
  const std::vector<int> ks = {2, 3, 4, 5, 6, 12};
  std::map<int, Expected> want;
  for (int k : ks) want[k] = ExpectRake(small, k);

  auto c = Connect();
  const uint64_t big_key = Register(*c, big);
  const uint64_t small_key = Register(*c, small);

  SolveSpec head;
  head.k = 2;
  uint64_t head_ticket = 0;
  std::string error;
  ASSERT_TRUE(c->Solve(big_key, head, &head_ticket, &error)) << error;

  std::vector<uint64_t> tickets;
  for (int k : ks) {
    SolveSpec spec;
    spec.k = k;
    uint64_t ticket = 0;
    ASSERT_TRUE(c->Solve(small_key, spec, &ticket, &error)) << error;
    tickets.push_back(ticket);
  }

  for (size_t i = 0; i < ks.size(); ++i) {
    TicketState state;
    SolveResult result;
    std::string why;
    ASSERT_TRUE(
        c->Fetch(tickets[i], /*block=*/true, &state, &result, &why, &error))
        << error;
    ASSERT_EQ(state, TicketState::kDone) << why;
    const Expected& e = want.at(ks[i]);
    EXPECT_EQ(result.engine_rounds, e.engine_rounds) << "k=" << ks[i];
    EXPECT_EQ(result.messages, e.messages) << "k=" << ks[i];
    EXPECT_EQ(result.digest, e.digest) << "k=" << ks[i];
  }

  ServerStats stats;
  ASSERT_TRUE(c->Stats(&stats, &error)) << error;
  // The head either ran alone before the six arrived (2 passes) or some of
  // the six arrived first; in every schedule the sweep bound holds:
  EXPECT_LE(stats.batches, 1 + ks.size());
  EXPECT_GE(stats.max_batch, 2u);
  server_->Stop();
}

// Cancelling a queued member of a forming batch completes it immediately
// as kCancelled and must leave the surviving members' transcripts
// untouched.
TEST_F(ServeConcurrentTest, CancelledMemberLeavesBatchMatesUntouched) {
  StartServer({});
  const Graph big = UniformRandomTree(200000, 5);
  const Graph small = UniformRandomTree(211, 9);
  const Expected keep2 = ExpectRake(small, 2);
  const Expected keep5 = ExpectRake(small, 5);

  auto c = Connect();
  const uint64_t big_key = Register(*c, big);
  const uint64_t small_key = Register(*c, small);

  SolveSpec head;
  head.k = 2;
  uint64_t head_ticket = 0;
  std::string error;
  ASSERT_TRUE(c->Solve(big_key, head, &head_ticket, &error)) << error;

  uint64_t keep_ticket = 0, dead_ticket = 0, keep5_ticket = 0;
  SolveSpec spec;
  spec.k = 2;
  ASSERT_TRUE(c->Solve(small_key, spec, &keep_ticket, &error)) << error;
  spec.k = 3;
  ASSERT_TRUE(c->Solve(small_key, spec, &dead_ticket, &error)) << error;
  spec.k = 5;
  ASSERT_TRUE(c->Solve(small_key, spec, &keep5_ticket, &error)) << error;

  TicketState state;
  ASSERT_TRUE(c->Cancel(dead_ticket, &state, &error)) << error;
  // Queued at cancel time (the big head is still running), so the cancel
  // completes the ticket immediately.
  EXPECT_EQ(state, TicketState::kCancelled);

  SolveResult result;
  std::string why;
  ASSERT_TRUE(
      c->Fetch(keep_ticket, /*block=*/true, &state, &result, &why, &error))
      << error;
  ASSERT_EQ(state, TicketState::kDone) << why;
  EXPECT_EQ(result.digest, keep2.digest);
  EXPECT_EQ(result.engine_rounds, keep2.engine_rounds);
  ASSERT_TRUE(
      c->Fetch(keep5_ticket, /*block=*/true, &state, &result, &why, &error))
      << error;
  ASSERT_EQ(state, TicketState::kDone) << why;
  EXPECT_EQ(result.digest, keep5.digest);
  EXPECT_EQ(result.engine_rounds, keep5.engine_rounds);

  ASSERT_TRUE(
      c->Fetch(dead_ticket, /*block=*/false, &state, &result, &why, &error))
      << error;
  EXPECT_EQ(state, TicketState::kCancelled);
  server_->Stop();
}

// Identical kThm15Edge requests queued together still run one solo pass
// each: each keeps its own round budget, a member cancelled while queued
// ends kCancelled, and the survivor gets the solo engine's answer.
TEST_F(ServeConcurrentTest, IdenticalSoloRequestsRunOneEach) {
  StartServer({});
  const Graph big = UniformRandomTree(200000, 19);
  const Graph small = UniformRandomTree(301, 29);
  const int k = 5;
  EdgeColoringProblem problem(EdgeColoringProblem::Mode::kEdgeDegreePlusOne,
                              small.MaxDegree());
  const Thm15Result solo = SolveEdgeProblemBoundedArboricity(
      problem, small, IotaIds(small.NumNodes()), small.NumNodes(), 1, k);
  ASSERT_TRUE(solo.valid) << solo.why;
  ASSERT_GT(solo.rounds_decomposition, 1);

  auto c = Connect();
  const uint64_t big_key = Register(*c, big);
  const uint64_t small_key = Register(*c, small);

  SolveSpec head;
  head.k = 2;
  uint64_t head_ticket = 0;
  std::string error;
  ASSERT_TRUE(c->Solve(big_key, head, &head_ticket, &error)) << error;

  SolveSpec spec;
  spec.kind = SolveKind::kThm15Edge;
  spec.problem = ProblemId::kEdgeColoringEdgeDegreePlusOne;
  spec.k = k;
  spec.a = 1;
  uint64_t tight = 0, dead = 0, keep = 0;
  spec.max_rounds = 1;
  ASSERT_TRUE(c->Solve(small_key, spec, &tight, &error)) << error;
  spec.max_rounds = 0;
  ASSERT_TRUE(c->Solve(small_key, spec, &dead, &error)) << error;
  ASSERT_TRUE(c->Solve(small_key, spec, &keep, &error)) << error;

  TicketState state;
  ASSERT_TRUE(c->Cancel(dead, &state, &error)) << error;
  // Queued behind the big head, so the cancel completes at once.
  EXPECT_EQ(state, TicketState::kCancelled);

  SolveResult result;
  std::string why;
  ASSERT_TRUE(c->Fetch(tight, /*block=*/true, &state, &result, &why, &error))
      << error;
  EXPECT_EQ(state, TicketState::kFailed);
  EXPECT_NE(why.find("round"), std::string::npos) << why;
  ASSERT_TRUE(c->Fetch(keep, /*block=*/true, &state, &result, &why, &error))
      << error;
  ASSERT_EQ(state, TicketState::kDone) << why;
  EXPECT_EQ(result.kind, SolveKind::kThm15Edge);
  EXPECT_EQ(result.valid, 1);
  EXPECT_EQ(result.engine_rounds, (uint32_t)solo.rounds_decomposition);
  EXPECT_EQ(result.total_rounds, (uint32_t)solo.rounds_total);
  EXPECT_EQ(result.messages, solo.engine_messages);
  EXPECT_EQ(result.digest, FoldDigest(solo.decomposition.round_stats));
  ASSERT_TRUE(c->Fetch(dead, /*block=*/false, &state, &result, &why, &error))
      << error;
  EXPECT_EQ(state, TicketState::kCancelled);

  // The head's pass, then one solo pass per surviving request; the run
  // that broke its budget still counts as engine work.
  ServerStats stats;
  ASSERT_TRUE(c->Stats(&stats, &error)) << error;
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_EQ(stats.batched_requests, 3u);
  EXPECT_EQ(stats.max_batch, 1u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.cancelled, 1u);
  const Expected head_run = ExpectRake(big, head.k);
  EXPECT_EQ(stats.engine_rounds,
            head_run.engine_rounds + 2 * (uint64_t)solo.rounds_decomposition);
  EXPECT_EQ(stats.engine_messages,
            (uint64_t)(head_run.messages + 2 * solo.engine_messages));
  server_->Stop();
}

// A Thm 12 pass runs each canonical k once (k >= Delta share one), and the
// engine counters count that work once, not once per member.
TEST_F(ServeConcurrentTest, Thm12PassCountsEachCanonicalKOnce) {
  StartServer({});
  const Graph big = UniformRandomTree(200000, 43);
  const Graph small = UniformRandomTree(301, 47);
  ASSERT_GT(small.MaxDegree(), 3);
  ASSERT_LT(small.MaxDegree(), 64);
  auto c = Connect();
  const uint64_t big_key = Register(*c, big);
  const uint64_t small_key = Register(*c, small);

  SolveSpec head;
  head.k = 2;
  uint64_t head_ticket = 0;
  std::string error;
  ASSERT_TRUE(c->Solve(big_key, head, &head_ticket, &error)) << error;

  const std::vector<int> ks = {3, 3, 64, 100};
  std::vector<uint64_t> tickets;
  for (int k : ks) {
    SolveSpec spec;
    spec.kind = SolveKind::kThm12Node;
    spec.problem = ProblemId::kColoringDeltaPlusOne;
    spec.k = k;
    uint64_t ticket = 0;
    ASSERT_TRUE(c->Solve(small_key, spec, &ticket, &error)) << error;
    tickets.push_back(ticket);
  }
  for (size_t i = 0; i < ks.size(); ++i) {
    TicketState state;
    SolveResult result;
    std::string why;
    ASSERT_TRUE(
        c->Fetch(tickets[i], /*block=*/true, &state, &result, &why, &error))
        << error;
    ASSERT_EQ(state, TicketState::kDone) << why;
    const Expected e = ExpectThm12(small, ks[i]);
    EXPECT_EQ(result.engine_rounds, e.engine_rounds) << "k=" << ks[i];
    EXPECT_EQ(result.messages, e.messages) << "k=" << ks[i];
    EXPECT_EQ(result.digest, e.digest) << "k=" << ks[i];
  }

  ServerStats stats;
  ASSERT_TRUE(c->Stats(&stats, &error)) << error;
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.max_batch, ks.size());
  ColoringProblem problem(ColoringProblem::Mode::kDeltaPlusOne,
                          small.MaxDegree());
  uint64_t want_rounds = ExpectRake(big, head.k).engine_rounds;
  uint64_t want_messages = (uint64_t)ExpectRake(big, head.k).messages;
  for (int k : {3, 64}) {
    const Thm12Result r = SolveNodeProblemOnTree(
        problem, small, IotaIds(small.NumNodes()), small.NumNodes(), k);
    want_rounds += (uint64_t)r.rounds_total;
    want_messages += (uint64_t)r.engine_messages;
  }
  EXPECT_EQ(stats.engine_rounds, want_rounds);
  EXPECT_EQ(stats.engine_messages, want_messages);
  server_->Stop();
}

// A rake-compress pass runs one group per canonical k, one after another
// on one engine, and the groups are isolated from each other:
//  - a member over its round budget fails only its own group, after the
//    engine ran just the rounds the budget allowed, and its pass-mates get
//    their solo answers;
//  - a group whose only member is cancelled after the pass collected it,
//    but before the group starts, never runs at all.
// engine_rounds / engine_messages count exactly the groups that ran.
TEST_F(ServeConcurrentTest, RakeCompressPassIsolatesGroups) {
  StartServer({});
  const Graph big = UniformRandomTree(200000, 53);
  const Graph mid = UniformRandomTree(200000, 59);
  const Graph small = UniformRandomTree(301, 61);
  ASSERT_GT(small.MaxDegree(), 3);  // k = 2, 3 and 8 are three groups
  auto c = Connect();
  const uint64_t big_key = Register(*c, big);
  const uint64_t mid_key = Register(*c, mid);
  const uint64_t small_key = Register(*c, small);
  std::string error;

  auto submit = [&](uint64_t key, int k, int max_rounds) {
    SolveSpec spec;
    spec.k = k;
    spec.max_rounds = max_rounds;
    uint64_t ticket = 0;
    EXPECT_TRUE(c->Solve(key, spec, &ticket, &error)) << error;
    return ticket;
  };
  auto fetch = [&](uint64_t ticket, SolveResult* result, std::string* why) {
    TicketState state = TicketState::kQueued;
    EXPECT_TRUE(c->Fetch(ticket, /*block=*/true, &state, result, why, &error))
        << error;
    return state;
  };
  auto expect_solo = [&](uint64_t ticket, const Expected& e, int k) {
    SolveResult result;
    std::string why;
    ASSERT_EQ(fetch(ticket, &result, &why), TicketState::kDone)
        << "k=" << k << " " << why;
    EXPECT_EQ(result.engine_rounds, e.engine_rounds) << "k=" << k;
    EXPECT_EQ(result.messages, e.messages) << "k=" << k;
    EXPECT_EQ(result.digest, e.digest) << "k=" << k;
  };

  // Pass 1, queued behind a big head: the k = 3 member's budget of one
  // round fails its group after round 0; k = 2 and k = 8 are untouched.
  submit(big_key, 2, 0);
  const uint64_t t2 = submit(small_key, 2, 0);
  const uint64_t t3 = submit(small_key, 3, 1);
  const uint64_t t8 = submit(small_key, 8, 0);
  const Expected small2 = ExpectRake(small, 2);
  const Expected small8 = ExpectRake(small, 8);
  expect_solo(t2, small2, 2);
  expect_solo(t8, small8, 8);
  SolveResult result;
  std::string why;
  EXPECT_EQ(fetch(t3, &result, &why), TicketState::kFailed);
  EXPECT_NE(why.find("round budget"), std::string::npos) << why;

  // Pass 2, again behind a big head, on a big graph so that its k = 2 and
  // k = 3 groups run long: the k = 8 member is cancelled once the pass has
  // collected it (kRunning), which is before its group can start.
  submit(big_key, 2, 0);
  const uint64_t m2 = submit(mid_key, 2, 0);
  const uint64_t m3 = submit(mid_key, 3, 0);
  const uint64_t m8 = submit(mid_key, 8, 0);
  TicketState state = TicketState::kQueued;
  while (state == TicketState::kQueued) {
    ASSERT_TRUE(
        c->Fetch(m8, /*block=*/false, &state, &result, &why, &error))
        << error;
  }
  ASSERT_EQ(state, TicketState::kRunning);
  ASSERT_TRUE(c->Cancel(m8, &state, &error)) << error;
  expect_solo(m2, ExpectRake(mid, 2), 2);
  expect_solo(m3, ExpectRake(mid, 3), 3);
  EXPECT_EQ(fetch(m8, &result, &why), TicketState::kCancelled);

  ServerStats stats;
  ASSERT_TRUE(c->Stats(&stats, &error)) << error;
  EXPECT_EQ(stats.batches, 4u);
  EXPECT_EQ(stats.max_batch, 3u);
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.cancelled, 1u);
  // The failed group ran round 0 only: every node broadcast its degree.
  const RakeCompressResult small3 =
      RunRakeCompress(small, IotaIds(small.NumNodes()), 3);
  const Expected head = ExpectRake(big, 2);
  const Expected mid2 = ExpectRake(mid, 2);
  const Expected mid3 = ExpectRake(mid, 3);
  EXPECT_EQ(stats.engine_rounds,
            2 * (uint64_t)head.engine_rounds + small2.engine_rounds + 1 +
                small8.engine_rounds + mid2.engine_rounds +
                mid3.engine_rounds);
  EXPECT_EQ(stats.engine_messages,
            (uint64_t)(2 * head.messages + small2.messages +
                       small3.round_stats[0].messages_sent + small8.messages +
                       mid2.messages + mid3.messages));
  server_->Stop();
}

// Cancelling a RUNNING solve halts it at the next slice boundary (the
// mid-run-halt path). A tight slice makes the window easy to hit; if the
// run still wins the race the ticket lands kDone — either way it reaches a
// terminal state and the daemon drains.
TEST_F(ServeConcurrentTest, CancelMidRunReachesTerminalStateAndDrains) {
  Server::Options opt;
  opt.slice_rounds = 2;
  StartServer(opt);
  const Graph big = UniformRandomTree(300000, 13);
  auto c = Connect();
  const uint64_t key = Register(*c, big);

  SolveSpec spec;
  spec.k = 2;
  uint64_t ticket = 0;
  std::string error;
  ASSERT_TRUE(c->Solve(key, spec, &ticket, &error)) << error;
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  TicketState state;
  ASSERT_TRUE(c->Cancel(ticket, &state, &error)) << error;

  SolveResult result;
  std::string why;
  ASSERT_TRUE(c->Fetch(ticket, /*block=*/true, &state, &result, &why, &error))
      << error;
  EXPECT_TRUE(state == TicketState::kCancelled || state == TicketState::kDone)
      << TicketStateName(state);

  ServerStats stats;
  ASSERT_TRUE(c->Stats(&stats, &error)) << error;
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.inflight, 0u);
  server_->Stop();
}

// Per-request round budgets surface as kFailed with a reason, through the
// engine's MaxRoundsExceededError path.
TEST_F(ServeConcurrentTest, RoundBudgetExceededFails) {
  StartServer({});
  const Graph tree = UniformRandomTree(4096, 17);
  auto c = Connect();
  const uint64_t key = Register(*c, tree);

  SolveSpec spec;
  spec.k = 2;
  spec.max_rounds = 1;
  uint64_t ticket = 0;
  std::string error;
  ASSERT_TRUE(c->Solve(key, spec, &ticket, &error)) << error;
  TicketState state;
  SolveResult result;
  std::string why;
  ASSERT_TRUE(c->Fetch(ticket, /*block=*/true, &state, &result, &why, &error))
      << error;
  EXPECT_EQ(state, TicketState::kFailed);
  EXPECT_NE(why.find("round"), std::string::npos) << why;
  server_->Stop();
}

// The validation surface: non-forest graphs reject tree-only kinds, bad
// parameters reject, unknown keys and tickets reject — all as structured
// errors, never as dead connections.
TEST_F(ServeConcurrentTest, BadRequestsAreStructured) {
  StartServer({});
  auto c = Connect();

  // A triangle is not a forest.
  const Graph triangle = Graph::FromEdges(3, {{0, 1}, {1, 2}, {0, 2}});
  const uint64_t tri_key = Register(*c, triangle);
  SolveSpec spec;
  spec.kind = SolveKind::kRakeCompress;
  spec.k = 2;
  uint64_t ticket = 0;
  std::string error;
  EXPECT_FALSE(c->Solve(tri_key, spec, &ticket, &error));
  EXPECT_NE(error.find("forest"), std::string::npos) << error;

  // But the decomposition kinds accept it.
  spec.kind = SolveKind::kDecomposition;
  spec.a = 1;
  spec.k = 5;
  SolveResult result;
  EXPECT_TRUE(c->SolveAndWait(tri_key, spec, &result, &error)) << error;

  // k < 5a rejects.
  spec.k = 4;
  EXPECT_FALSE(c->Solve(tri_key, spec, &ticket, &error));
  EXPECT_NE(error.find("5a"), std::string::npos) << error;

  // Unknown graph key.
  spec.k = 5;
  EXPECT_FALSE(c->Solve(0xdeadbeefull, spec, &ticket, &error));
  EXPECT_NE(error.find("unknown-graph"), std::string::npos) << error;

  // Unknown ticket.
  TicketState state;
  std::string why;
  EXPECT_FALSE(c->Fetch(999999, false, &state, &result, &why, &error));
  EXPECT_NE(error.find("unknown-ticket"), std::string::npos) << error;

  // Duplicate ids reject at admission.
  uint64_t key = 0;
  bool fresh = false;
  const Graph path = Graph::FromEdges(3, {{0, 1}, {1, 2}});
  EXPECT_FALSE(c->RegisterGraph(path, {5, 5, 6}, &key, &fresh, &error));
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;

  // The connection survived every rejection.
  uint32_t version = 0;
  EXPECT_TRUE(c->Ping(&version, &error)) << error;
  server_->Stop();
}

// A zero admission cap bounces every solve with the structured kRejected
// status (never a dead connection, never a queue slot), and the rejection
// is visible in stats without perturbing the request counters.
TEST_F(ServeConcurrentTest, ZeroCapacityQueueRejectsAllSolves) {
  Server::Options opt;
  opt.max_queue = 0;
  StartServer(opt);
  const Graph tree = UniformRandomTree(64, 3);
  auto c = Connect();
  const uint64_t key = Register(*c, tree);

  SolveSpec spec;
  spec.k = 2;
  uint64_t ticket = 0;
  std::string error;
  for (int i = 0; i < 3; ++i) {
    error.clear();
    EXPECT_FALSE(c->Solve(key, spec, &ticket, &error));
    EXPECT_NE(error.find("rejected"), std::string::npos) << error;
    EXPECT_NE(error.find("retry"), std::string::npos) << error;
  }

  ServerStats stats;
  ASSERT_TRUE(c->Stats(&stats, &error)) << error;
  EXPECT_EQ(stats.rejected, 3u);
  EXPECT_EQ(stats.requests, 0u);  // rejected solves are never admitted
  EXPECT_EQ(stats.queue_depth, 0u);

  // The connection survived every rejection.
  uint32_t version = 0;
  EXPECT_TRUE(c->Ping(&version, &error)) << error;
  server_->Stop();
}

// A finite cap under load: while a long head solve occupies the dispatcher,
// floods past the cap bounce with kRejected; the admitted requests still
// finish bit-identical to their solo runs, and once the queue drains new
// submissions are accepted again (backpressure, not lockout).
TEST_F(ServeConcurrentTest, FullQueueRejectsThenDrainsAndAccepts) {
  Server::Options opt;
  opt.max_queue = 2;
  StartServer(opt);
  const Graph big = UniformRandomTree(300000, 19);
  const Graph small = UniformRandomTree(97, 21);
  const Expected want = ExpectRake(small, 2);

  auto c = Connect();
  const uint64_t big_key = Register(*c, big);
  const uint64_t small_key = Register(*c, small);

  SolveSpec head;
  head.k = 2;
  uint64_t head_ticket = 0;
  std::string error;
  ASSERT_TRUE(c->Solve(big_key, head, &head_ticket, &error)) << error;

  // Flood while the head runs. The queue admits at most max_queue = 2; the
  // dispatcher may or may not have popped the head yet, so accepted is 1 or
  // 2 and everything beyond the cap must come back kRejected.
  constexpr int kFlood = 5;
  std::vector<uint64_t> accepted;
  int rejected = 0;
  for (int i = 0; i < kFlood; ++i) {
    SolveSpec spec;
    spec.k = 2;
    uint64_t ticket = 0;
    error.clear();
    if (c->Solve(small_key, spec, &ticket, &error)) {
      accepted.push_back(ticket);
    } else {
      EXPECT_NE(error.find("rejected"), std::string::npos) << error;
      ++rejected;
    }
  }
  EXPECT_GE(accepted.size(), 1u);
  EXPECT_LE(accepted.size(), 2u);
  EXPECT_EQ(rejected, kFlood - static_cast<int>(accepted.size()));

  // Admitted tickets are untouched by the rejections around them: each
  // result is still bit-identical to the solo run.
  for (uint64_t ticket : accepted) {
    TicketState state;
    SolveResult result;
    std::string why;
    ASSERT_TRUE(
        c->Fetch(ticket, /*block=*/true, &state, &result, &why, &error))
        << error;
    ASSERT_EQ(state, TicketState::kDone) << why;
    EXPECT_EQ(result.engine_rounds, want.engine_rounds);
    EXPECT_EQ(result.messages, want.messages);
    EXPECT_EQ(result.digest, want.digest);
  }

  // Drained queue: admission works again.
  SolveSpec spec;
  spec.k = 2;
  SolveResult result;
  ASSERT_TRUE(c->SolveAndWait(small_key, spec, &result, &error)) << error;
  EXPECT_EQ(result.digest, want.digest);

  ServerStats stats;
  ASSERT_TRUE(c->Stats(&stats, &error)) << error;
  EXPECT_EQ(stats.rejected, static_cast<uint64_t>(rejected));
  EXPECT_EQ(stats.requests, 2 + accepted.size());  // head + admitted + drain
  EXPECT_EQ(stats.queue_depth, 0u);
  server_->Stop();
}

// Engine-threads > 1 must not change any answer (the Network determinism
// contract, load-bearing for serving).
TEST_F(ServeConcurrentTest, ShardedEngineBitIdentical) {
  Server::Options opt;
  opt.engine_threads = 3;
  StartServer(opt);
  const Graph tree = UniformRandomTree(300, 29);
  const Expected e2 = ExpectRake(tree, 2);
  const Expected e7 = ExpectRake(tree, 7);

  auto c = Connect();
  const uint64_t key = Register(*c, tree);
  for (const auto& [k, e] : {std::pair<int, Expected>{2, e2}, {7, e7}}) {
    SolveSpec spec;
    spec.k = k;
    SolveResult result;
    std::string error;
    ASSERT_TRUE(c->SolveAndWait(key, spec, &result, &error)) << error;
    EXPECT_EQ(result.digest, e.digest) << "k=" << k;
    EXPECT_EQ(result.engine_rounds, e.engine_rounds) << "k=" << k;
    EXPECT_EQ(result.messages, e.messages) << "k=" << k;
  }
  server_->Stop();
}

}  // namespace
}  // namespace treelocal::serve
