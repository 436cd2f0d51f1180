// Experiment E13: daemon throughput where batch = concurrent users. Spins
// up an in-process treelocald server and drives it with a closed loop of
// client threads (each submits, blocks on the result, submits again) over
// one resident tree, cycling six request classes: a rake-compress k-sweep
// {2,3,4,8}, Thm 12 MIS and Thm 15 (edge-degree+1)-edge coloring. Two
// daemon configurations over the identical workload:
//   * serial:    --max-batch 1 — every request is its own engine pass;
//   * coalesced: --max-batch 16 — the dispatcher sweeps compatible queued
//     requests into one pass: one BatchNetwork pass for rake-compress
//     (canonical-k dedup included) and for Thm 12; Thm 15 runs solo.
// Every response is identity-gated against a solo run of its class
// (RunRakeCompress, SolveNodeProblemOnTree, SolveEdgeProblemBoundedArboricity):
// digest, engine rounds and message count must all match, and the theorem
// kinds must report a valid labeling, so the throughput number can never
// come from a wrong answer. The process
// exits non-zero on any mismatch, any failed request, or if coalescing
// never actually batched (max_batch stayed 1) — that is what CI gates on.
// Records go to BENCH_engine.json as source "bench_serve".
//
// --negative arms a deterministic mid-round FaultInjector inside the
// daemon's engine passes: at least one request must then fail, the gate
// must trip, and the process must exit non-zero. CI runs this as the
// liveness check for the identity gate itself.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/rake_compress.h"
#include "src/core/transform_edge.h"
#include "src/core/transform_node.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/problems/edge_coloring.h"
#include "src/problems/mis.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/support/digest.h"
#include "src/support/fault.h"

namespace treelocal {
namespace {

using Clock = std::chrono::steady_clock;

struct Expected {
  uint32_t rounds = 0;
  int64_t messages = 0;
  uint64_t digest = 0;
};

// One request class of the mix: what a client sends, and what the solo run
// of the same (graph, spec) reports.
struct RequestClass {
  serve::SolveSpec spec;
  Expected want;
};

uint64_t FoldDigest(const std::vector<local::RoundStats>& stats) {
  uint64_t d = support::kDigestSeed;
  for (const auto& rs : stats) {
    d = support::ChainDigest(d, rs.active_nodes, rs.messages_sent, 0);
  }
  return d;
}

// The identity gate's ground truth: a solo run of every class (the daemon
// must reproduce these bit for bit, coalesced or not).
std::vector<RequestClass> BuildMix(const Graph& tree,
                                   const std::vector<int>& ks,
                                   int pipeline_k) {
  const int n = tree.NumNodes();
  std::vector<int64_t> ids(n);
  for (int i = 0; i < n; ++i) ids[i] = i;
  const int64_t id_space = n;  // the registry's max(id) + 1 for 0..n-1
  std::vector<RequestClass> mix;
  for (int k : ks) {
    const RakeCompressResult r = RunRakeCompress(tree, ids, k);
    RequestClass c;
    c.spec.kind = serve::SolveKind::kRakeCompress;
    c.spec.k = k;
    c.want = {(uint32_t)r.engine_rounds, r.messages, FoldDigest(r.round_stats)};
    mix.push_back(c);
  }
  const MisProblem mis;
  const Thm12Result r12 =
      SolveNodeProblemOnTree(mis, tree, ids, id_space, pipeline_k);
  RequestClass thm12;
  thm12.spec.kind = serve::SolveKind::kThm12Node;
  thm12.spec.problem = serve::ProblemId::kMis;
  thm12.spec.k = pipeline_k;
  thm12.want = {(uint32_t)r12.rake_compress.engine_rounds, r12.engine_messages,
                FoldDigest(r12.rake_compress.round_stats)};
  mix.push_back(thm12);
  const EdgeColoringProblem ec(EdgeColoringProblem::Mode::kEdgeDegreePlusOne,
                               std::max(1, tree.MaxDegree()));
  const Thm15Result r15 = SolveEdgeProblemBoundedArboricity(
      ec, tree, ids, id_space, /*a=*/1, pipeline_k);
  RequestClass thm15;
  thm15.spec.kind = serve::SolveKind::kThm15Edge;
  thm15.spec.problem = serve::ProblemId::kEdgeColoringEdgeDegreePlusOne;
  thm15.spec.k = pipeline_k;
  thm15.spec.a = 1;
  thm15.want = {(uint32_t)r15.rounds_decomposition, r15.engine_messages,
                FoldDigest(r15.decomposition.round_stats)};
  mix.push_back(thm15);
  if (!r12.valid || !r15.valid) {
    std::cerr << "bench_serve: solo theorem run invalid\n";
    std::exit(2);
  }
  return mix;
}

struct ConfigResult {
  double seconds = 0;
  uint64_t failures = 0;
  uint64_t mismatches = 0;
  serve::ServerStats stats;
};

// One daemon configuration driven to completion by `clients` closed-loop
// threads issuing `requests` solves each.
ConfigResult RunConfig(const Graph& tree, const std::vector<RequestClass>& mix,
                       int clients, int requests, int max_batch,
                       support::FaultInjector* fault) {
  serve::Server::Options opt;
  opt.max_batch = max_batch;
  opt.fault = fault;
  serve::Server server(opt);
  std::string error;
  if (!server.Start(&error)) {
    std::cerr << "bench_serve: server start failed: " << error << "\n";
    std::exit(2);
  }

  ConfigResult out;
  std::atomic<uint64_t> failures{0}, mismatches{0};
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      serve::Client client;
      std::string err;
      if (!client.Connect("127.0.0.1", server.port(), &err)) {
        failures += requests;
        return;
      }
      uint64_t key = 0;
      bool fresh = false;
      if (!client.RegisterGraph(tree, {}, &key, &fresh, &err)) {
        failures += requests;
        return;
      }
      for (int i = 0; i < requests; ++i) {
        const RequestClass& c = mix[(t + i) % mix.size()];
        serve::SolveResult result;
        if (!client.SolveAndWait(key, c.spec, &result, &err)) {
          ++failures;
          continue;
        }
        const Expected& e = c.want;
        if (result.digest != e.digest || result.engine_rounds != e.rounds ||
            result.messages != e.messages || result.valid != 1) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  out.seconds = bench::SecondsSince(t0);

  serve::Client probe;
  if (probe.Connect("127.0.0.1", server.port(), &error)) {
    probe.Stats(&out.stats, &error);
  }
  server.Stop();
  out.failures = failures.load();
  out.mismatches = mismatches.load();
  return out;
}

}  // namespace
}  // namespace treelocal

int main(int argc, char** argv) {
  using namespace treelocal;

  int clients = 8;
  int requests = 12;
  int n = 1 << 14;
  uint64_t seed = 42;
  bool negative = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto need = [&](int& idx) -> std::string {
      if (idx + 1 >= argc) {
        std::cerr << "bench_serve: missing value for " << a << "\n";
        std::exit(2);
      }
      return argv[++idx];
    };
    if (a == "--clients") {
      clients = std::atoi(need(i).c_str());
    } else if (a == "--requests") {
      requests = std::atoi(need(i).c_str());
    } else if (a == "--n") {
      n = std::atoi(need(i).c_str());
    } else if (a == "--seed") {
      seed = std::strtoull(need(i).c_str(), nullptr, 0);
    } else if (a == "--negative") {
      negative = true;
    } else {
      std::cerr << "usage: bench_serve [--clients C] [--requests R] [--n N] "
                   "[--seed S] [--negative]\n";
      return 2;
    }
  }

  const Graph tree = UniformRandomTree(n, seed);
  const std::vector<int> ks = {2, 3, 4, 8};
  const int pipeline_k = 5;  // Thm 12 and Thm 15 (k >= 5a with a = 1)
  const std::vector<RequestClass> mix = BuildMix(tree, ks, pipeline_k);

  std::cout << "Daemon closed-loop throughput: " << clients << " clients x "
            << requests << " requests, n=" << n
            << ", rake-compress k-sweep {2,3,4,8} + Thm 12 MIS + Thm 15 "
               "edge coloring (k="
            << pipeline_k << ")\n";

  if (negative) {
    // Liveness check for the gate: a mid-round engine fault must surface as
    // a failed request and a non-zero exit.
    support::FaultInjector fault = support::FaultInjector::ThrowAtVisit(500);
    ConfigResult r =
        RunConfig(tree, mix, clients, requests, /*max_batch=*/16, &fault);
    std::cout << "  negative control: failures=" << r.failures
              << " mismatches=" << r.mismatches
              << " fault_fired=" << (fault.fired() ? 1 : 0) << "\n";
    if (r.failures == 0) {
      std::cerr << "bench_serve: NEGATIVE CONTROL DEAD — injected fault "
                   "produced no failed request\n";
      return 0;  // CI inverts this exit: 0 here means the gate is broken.
    }
    std::cerr << "bench_serve: negative control tripped as intended\n";
    return 1;
  }

  ConfigResult serial =
      RunConfig(tree, mix, clients, requests, /*max_batch=*/1, nullptr);
  ConfigResult coalesced =
      RunConfig(tree, mix, clients, requests, /*max_batch=*/16, nullptr);

  const uint64_t total = (uint64_t)clients * requests;
  const double serial_rps = total / serial.seconds;
  const double coalesced_rps = total / coalesced.seconds;
  const double speedup = serial.seconds / coalesced.seconds;
  const bool identical = serial.failures == 0 && serial.mismatches == 0 &&
                         coalesced.failures == 0 && coalesced.mismatches == 0;
  const bool batched = coalesced.stats.max_batch >= 2;

  std::cout << "  serial    (max-batch 1):  " << serial.seconds << " s  "
            << serial_rps << " req/s  batches=" << serial.stats.batches
            << "\n  coalesced (max-batch 16): " << coalesced.seconds << " s  "
            << coalesced_rps << " req/s  batches=" << coalesced.stats.batches
            << " max_batch=" << coalesced.stats.max_batch << "\n  speedup: "
            << speedup << "x  identity: " << (identical ? "yes" : "NO (BUG)")
            << "\n";

  bench::JsonWriter json;
  json.BeginRecord();
  json.Field("source", "bench_serve");
  json.Field("experiment", "daemon_closed_loop");
  json.Field("family", "uniform-random");
  json.Field("n", n);
  json.Field("clients", clients);
  json.Field("requests_per_client", requests);
  json.Field("ks", ks);
  json.Field("mix", "rake_compress ks + thm12_mis + thm15_edge_coloring");
  json.Field("pipeline_k", pipeline_k);
  json.Field("serial_seconds", serial.seconds);
  json.Field("coalesced_seconds", coalesced.seconds);
  json.Field("serial_rps", serial_rps);
  json.Field("coalesced_rps", coalesced_rps);
  json.Field("speedup", speedup);
  // Named so tools/check_bench_regression.py applies its identity gate.
  json.Field("transcripts_identical", identical);
  json.Field("serial_batches", (int64_t)serial.stats.batches);
  json.Field("coalesced_batches", (int64_t)coalesced.stats.batches);
  json.Field("coalesced_max_batch", (int64_t)coalesced.stats.max_batch);
  bench::HostFields(json);
  json.MergeAs("bench_serve", "BENCH_engine.json");
  std::cout << "  wrote BENCH_engine.json\n";

  if (!identical) {
    std::cerr << "bench_serve: IDENTITY GATE FAILED\n";
    return 1;
  }
  if (!batched) {
    std::cerr << "bench_serve: coalescing never batched (max_batch stayed "
              << coalesced.stats.max_batch << ")\n";
    return 1;
  }
  if (speedup <= 1.0) {
    std::cerr << "bench_serve: coalesced slower than serial (" << speedup
              << "x)\n";
    return 1;
  }
  return 0;
}
