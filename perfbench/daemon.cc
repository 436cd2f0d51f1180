// daemon_closed_loop_mixed: an in-process treelocald Server with one
// resident uniform tree, driven by a closed loop of kConnections clients
// that each keep one request in flight.
//
// The sequence of request kinds comes from the seed alone. Each request is
// timed from its send to its verified response. A closed loop offers the
// daemon a fixed concurrency instead of a fixed rate, so a slower daemon
// shows as longer latency and fewer requests per second, without the
// queue growth that makes an open loop's latencies swing with host speed.
#include <malloc.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>

#include "perfbench/bench.h"
#include "src/core/complexity.h"
#include "src/core/rake_compress.h"
#include "src/core/transform_edge.h"
#include "src/core/transform_node.h"
#include "src/graph/generators.h"
#include "src/problems/edge_coloring.h"
#include "src/problems/mis.h"
#include "src/serve/client.h"
#include "src/serve/server.h"
#include "src/support/digest.h"
#include "src/support/fault.h"
#include "src/support/rng.h"

namespace perfbench {
namespace {

using namespace treelocal;

constexpr int kRakeKs[] = {2, 3, 4, 8};
constexpr int kConnections = 8;

// What a solo engine run reports for one request kind: the daemon's
// response must carry exactly these rounds, messages and digest.
struct Expected {
  uint32_t rounds = 0;
  int64_t messages = 0;
  uint64_t digest = 0;
};

uint64_t FoldDigest(const std::vector<local::RoundStats>& stats) {
  uint64_t d = support::kDigestSeed;
  for (const auto& rs : stats) {
    d = support::ChainDigest(d, rs.active_nodes, rs.messages_sent, 0);
  }
  return d;
}

// Request classes: one per rake-compress k, then Thm 12 MIS, Thm 15
// edge coloring.
constexpr int kThm12Class = 4, kThm15Class = 5, kNumClasses = 6;

serve::SolveSpec SpecOf(int cls, int pipeline_k) {
  serve::SolveSpec spec;
  if (cls < kThm12Class) {
    spec.kind = serve::SolveKind::kRakeCompress;
    spec.k = kRakeKs[cls];
  } else if (cls == kThm12Class) {
    spec.kind = serve::SolveKind::kThm12Node;
    spec.problem = serve::ProblemId::kMis;
    spec.k = pipeline_k;
  } else {
    spec.kind = serve::SolveKind::kThm15Edge;
    spec.problem = serve::ProblemId::kEdgeColoringEdgeDegreePlusOne;
    spec.k = pipeline_k;
    spec.a = 1;
  }
  return spec;
}

// Solo-engine ground truth for every class, with the benchmark's own
// validation of the theorem kinds' labelings.
std::vector<Expected> SoloRuns(const Graph& tree, int pipeline_k,
                               Result& res) {
  const int n = tree.NumNodes();
  std::vector<int64_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  const int64_t id_space = n;  // the registry's max(id) + 1 for 0..n-1
  std::vector<Expected> want(kNumClasses);
  for (int c = 0; c < kThm12Class; ++c) {
    const RakeCompressResult r = RunRakeCompress(tree, ids, kRakeKs[c]);
    want[c] = {static_cast<uint32_t>(r.engine_rounds), r.messages,
               FoldDigest(r.round_stats)};
  }
  std::string why;
  const MisProblem mis;
  const Thm12Result r12 =
      SolveNodeProblemOnTree(mis, tree, ids, id_space, pipeline_k);
  if (!mis.ValidateGraph(tree, r12.labeling, &why)) {
    res.Fail("solo Thm 12 MIS invalid: " + why);
  }
  want[kThm12Class] = {static_cast<uint32_t>(r12.rake_compress.engine_rounds),
                       r12.engine_messages,
                       FoldDigest(r12.rake_compress.round_stats)};
  const EdgeColoringProblem ec(EdgeColoringProblem::Mode::kEdgeDegreePlusOne,
                               std::max(1, tree.MaxDegree()));
  const Thm15Result r15 = SolveEdgeProblemBoundedArboricity(
      ec, tree, ids, id_space, /*a=*/1, pipeline_k);
  if (!ec.ValidateGraph(tree, r15.labeling, &why)) {
    res.Fail("solo Thm 15 edge coloring invalid: " + why);
  }
  want[kThm15Class] = {static_cast<uint32_t>(r15.rounds_decomposition),
                       r15.engine_messages,
                       FoldDigest(r15.decomposition.round_stats)};
  return want;
}

// The request kinds in send order: the mix is exact per block of 40
// (28 rake-compress, 7 per k in kRakeKs; 8 Thm 12 MIS; 4 Thm 15 edge
// coloring), shuffled within each block from the seed.
class Mix {
 public:
  explicit Mix(uint64_t seed) : rng_(seed ^ 0x5eedda3e0ull) {
    for (int c = 0; c < kThm12Class; ++c) block_.insert(block_.end(), 7, c);
    block_.insert(block_.end(), 8, kThm12Class);
    block_.insert(block_.end(), 4, kThm15Class);
  }
  // The class of the next request; thread-safe.
  int Next() {
    std::lock_guard<std::mutex> lock(mu_);
    if (pos_ % block_.size() == 0) rng_.Shuffle(block_);
    return block_[pos_++ % block_.size()];
  }

 private:
  std::mutex mu_;
  Rng rng_;
  std::vector<int> block_;
  size_t pos_ = 0;
};

struct Outcome {
  bool ok = false;
  int cls = 0;
  double latency = 0;  // send -> verified response
  double submit = 0;   // the kSolve round trip
};

struct Loop {
  std::vector<Outcome> outcomes;
  double seconds = 0;  // wall-clock of the whole loop
};

// A closed loop of kConnections clients: each sends the next request of
// `mix` as soon as its previous one is verified, until `seconds` have
// passed. Every response must equal the solo engine run of its kind.
Loop ClosedLoop(int port, uint64_t key, Mix& mix,
                const std::vector<Expected>& want, int pipeline_k,
                double seconds, Tracer& tracer, int parent, Result& res) {
  std::vector<std::vector<Outcome>> per_conn(kConnections);
  std::mutex fail_mu;
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto worker = [&](int conn) {
    serve::Client client;
    std::string err;
    const bool connected = client.Connect("127.0.0.1", port, &err);
    while (Clock::now() < stop) {
      Outcome o;
      o.cls = mix.Next();
      const Clock::time_point sent = Clock::now();
      uint64_t ticket = 0;
      serve::TicketState state = serve::TicketState::kFailed;
      serve::SolveResult result;
      std::string why;
      bool rpc = connected &&
                 client.Solve(key, SpecOf(o.cls, pipeline_k), &ticket, &err);
      const Clock::time_point submitted = Clock::now();
      rpc = rpc && client.Fetch(ticket, /*block=*/true, &state, &result, &why,
                                &err);
      const Clock::time_point answered = Clock::now();
      const Expected& e = want[o.cls];
      o.ok = rpc && state == serve::TicketState::kDone && result.valid == 1 &&
             result.engine_rounds == e.rounds &&
             result.messages == e.messages && result.digest == e.digest;
      const Clock::time_point verified = Clock::now();
      o.latency = SecondsBetween(sent, verified);
      o.submit = SecondsBetween(sent, submitted);
      if (tracer.on()) {
        const int64_t track = 1 + conn;
        const int span = tracer.Add("request", sent, verified, parent, track);
        tracer.Add("serve.submit", sent, submitted, span, track);
        tracer.Add("serve.fetch", submitted, answered, span, track);
        tracer.Add("verify", answered, verified, span, track);
      }
      if (!o.ok) {
        std::lock_guard<std::mutex> lock(fail_mu);
        res.Fail(!rpc ? "request: " + err
                 : state != serve::TicketState::kDone
                     ? std::string("request ended ") +
                           serve::TicketStateName(state) + ": " + why
                     : std::string("response differs from the solo engine "
                                   "run"));
      }
      per_conn[conn].push_back(o);
      if (!connected) break;
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) threads.emplace_back(worker, c);
  for (std::thread& t : threads) t.join();
  Loop loop;
  loop.seconds = SecondsSince(start);
  for (const std::vector<Outcome>& v : per_conn) {
    loop.outcomes.insert(loop.outcomes.end(), v.begin(), v.end());
  }
  res.attempted += static_cast<int64_t>(loop.outcomes.size());
  return loop;
}

std::vector<double> Pick(const std::vector<Outcome>& v,
                         double Outcome::*field, int cls = -1) {
  std::vector<double> out;
  for (const Outcome& o : v) {
    if (o.ok && (cls < 0 || o.cls == cls)) out.push_back(o.*field);
  }
  return out;
}

}  // namespace

Result RunDaemon(const Options& opt, Tracer& tracer) {
  // One malloc arena for the process. With the default, the number of
  // arenas the ~20 client, connection and dispatcher threads create
  // depends on lock contention, and peak_rss_mb jumped by ~30% between
  // runs with it; one arena leaves the daemon's own allocations.
  mallopt(M_ARENA_MAX, 1);
  Result res;
  const int root = tracer.Begin("daemon_closed_loop_mixed");
  const Graph tree = UniformRandomTree(opt.n, opt.seed);
  const int pipeline_k = std::max(5, ChooseK(opt.n, QuadraticF()));
  const std::vector<Expected> want = SoloRuns(tree, pipeline_k, res);

  // Negative control: the engine pass that makes the 500th node visit
  // throws mid-round, once.
  support::FaultInjector fault = support::FaultInjector::ThrowAtVisit(500);
  serve::Server::Options sopt;
  sopt.fault = opt.fault ? &fault : nullptr;

  std::unique_ptr<serve::Server> server;
  uint64_t key = 0;
  std::vector<double> setup_s, register_s;
  for (int i = 0; i < opt.setups; ++i) {
    server.reset();
    const Clock::time_point t0 = Clock::now();
    server = std::make_unique<serve::Server>(sopt);
    std::string err;
    {
      Scope s(tracer, "serve.start", root, nullptr);
      if (!server->Start(&err)) throw std::runtime_error("start: " + err);
    }
    serve::Client client;
    bool fresh = false;
    double reg = 0;
    {
      Scope s(tracer, "serve.register", root, &reg);
      if (!client.Connect("127.0.0.1", server->port(), &err) ||
          !client.RegisterGraph(tree, {}, &key, &fresh, &err)) {
        throw std::runtime_error("register: " + err);
      }
    }
    register_s.push_back(reg);
    setup_s.push_back(SecondsSince(t0));
  }

  Mix mix(opt.seed);
  const Loop loop =
      ClosedLoop(server->port(), key, mix, want, pipeline_k,
                 opt.trace ? opt.seconds / 2 : opt.seconds, tracer, -1, res);
  const serve::ServerStats stats0 = server->StatsSnapshot();
  auto& m = res.metrics;
  const std::vector<double> latency = Pick(loop.outcomes, &Outcome::latency);
  m["setup_s"] = Median(setup_s);
  // Daemon wall-clock per completed request at the loop's concurrency:
  // the inverse of its throughput.
  m["solve_s"] = loop.seconds / std::max<size_t>(1, loop.outcomes.size());
  m["peak_rss_mb"] = PeakRssMb();
  m["req_p50_ms"] = 1e3 * Median(latency);
  m["req_p99_ms"] = 1e3 * Percentile(latency, 0.99);
  res.info["setups"] = static_cast<double>(setup_s.size());
  res.info["requests"] = static_cast<double>(loop.outcomes.size());
  res.info["connections"] = kConnections;
  if (!opt.trace) return res;

  // Traced half: the loop goes on with the same mix, spans recorded.
  const Loop traced = ClosedLoop(server->port(), key, mix, want, pipeline_k,
                                 opt.seconds / 2, tracer, root, res);
  const serve::ServerStats stats = server->StatsSnapshot();
  tracer.End(root);
  const double batches = static_cast<double>(stats.batches - stats0.batches);
  m["serve.register_s"] = Median(register_s);
  m["serve.submit_p50_ms"] =
      1e3 * Median(Pick(traced.outcomes, &Outcome::submit));
  std::vector<double> rake;
  for (int c = 0; c < kThm12Class; ++c) {
    const std::vector<double> v = Pick(traced.outcomes, &Outcome::latency, c);
    rake.insert(rake.end(), v.begin(), v.end());
  }
  m["serve.rake_compress_p99_ms"] = 1e3 * Percentile(rake, 0.99);
  m["serve.thm12_p99_ms"] =
      1e3 *
      Percentile(Pick(traced.outcomes, &Outcome::latency, kThm12Class), 0.99);
  m["serve.thm15_p99_ms"] =
      1e3 *
      Percentile(Pick(traced.outcomes, &Outcome::latency, kThm15Class), 0.99);
  m["serve.batch_width"] =
      batches > 0 ? (stats.batched_requests - stats0.batched_requests) / batches
                  : 0;
  m["serve.max_queue_depth"] = static_cast<double>(stats.max_queue_depth);
  m["serve.rejected"] = static_cast<double>(stats.rejected);
  m["trace.overhead_s"] =
      Median(Pick(traced.outcomes, &Outcome::latency)) - Median(latency);
  res.info["traced_requests"] = static_cast<double>(traced.outcomes.size());
  return res;
}

}  // namespace perfbench
