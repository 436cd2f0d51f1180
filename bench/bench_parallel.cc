// Parallel-engine acceptance driver: T-sweep scaling curves of the sharded
// round pass, gated on transcript identity.
//
// Two measurements, both on uniform-random-tree rake-compress (the
// bandwidth-bound workload ROADMAP names as the sharding target), merged
// into BENCH_engine.json as source "bench_parallel":
//   * parallel_scaling: Network at each T in --threads vs Network at
//     T = 1 — per-T wall-clock (best of --reps), speedup, and the
//     per-round wall-clock trajectory. Exits non-zero if any T's transcript
//     (outputs, rounds, messages, per-round RoundStats) differs from
//     T = 1: the determinism contract is the acceptance gate, speedup is
//     reported but never traded against it.
//   * relabel_ablation: Network with NetworkOptions::relabel vs default
//     layout, identity-gated, timing both (the BFS locality satellite).
//
// CI runs this at small n with --threads=4 as the smoke gate; the full-size
// run (n = 2^20 by default) produces the scaling record for ROADMAP.
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/rake_compress.h"
#include "src/graph/generators.h"
#include "src/local/network.h"
#include "src/support/rng.h"
#include "src/support/thread_pool.h"
#include "tools/flag_parse.h"

namespace treelocal {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool SameTranscript(const RakeCompressResult& a, const RakeCompressResult& b) {
  return a.iteration == b.iteration && a.compressed == b.compressed &&
         a.engine_rounds == b.engine_rounds && a.messages == b.messages &&
         a.round_stats == b.round_stats;
}

// Warmup + best-of-reps on a reusable engine; keeps the result and round
// trajectory of the fastest rep.
template <typename Engine>
double Measure(Engine& engine, int k, int reps, RakeCompressResult& out,
               std::vector<double>& round_seconds) {
  RunRakeCompress(engine, k);  // warmup: faults in the mailboxes
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    auto t0 = Clock::now();
    RakeCompressResult r = RunRakeCompress(engine, k);
    double s = Seconds(t0);
    if (s < best) {
      best = s;
      out = std::move(r);
      round_seconds = bench::EngineTimingRecorder::Capture(engine);
    }
  }
  return best;
}

bool RunScaling(const Graph& tree, const std::vector<int64_t>& ids, int k,
                int reps, const std::vector<int>& thread_counts,
                bench::JsonWriter& json) {
  const int n = tree.NumNodes();
  std::cout << "Parallel scaling: rake-compress on a " << n
            << "-node uniform tree, k=" << k << "\n";

  local::Network serial(tree, ids);
  bench::EngineTimingRecorder::Arm(serial);
  RakeCompressResult want;
  std::vector<double> serial_rounds;
  const double serial_s = Measure(serial, k, reps, want, serial_rounds);
  std::cout << "  serial: " << serial_s << " s (" << want.engine_rounds
            << " rounds, " << want.messages << " messages)\n";

  bool ok = true;
  for (int threads : thread_counts) {
    local::Network par(tree, ids, threads);
    bench::EngineTimingRecorder::Arm(par);
    RakeCompressResult got;
    std::vector<double> par_rounds;
    const double par_s = Measure(par, k, reps, got, par_rounds);
    const bool identical = SameTranscript(got, want);
    ok &= identical;
    const double speedup = serial_s / par_s;
    std::cout << "  T=" << threads << ": " << par_s << " s  speedup "
              << speedup << "x  identical=" << (identical ? "yes" : "NO (BUG)")
              << "\n";

    json.BeginRecord();
    json.Field("source", "bench_parallel");
    json.Field("experiment", "parallel_scaling");
    json.Field("n", n);
    json.Field("edges", tree.NumEdges());
    json.Field("k", k);
    json.Field("threads", threads);
    json.Field("rounds", got.engine_rounds);
    json.Field("messages", got.messages);
    json.Field("serial_seconds", serial_s);
    json.Field("parallel_seconds", par_s);
    json.Field("speedup", speedup);
    json.Field("transcripts_identical", identical);
    json.Field("round_seconds", par_rounds);
    bench::HostFields(json);
  }

  // The serial trajectory rides along once per (n, k) so the per-T curves
  // have their baseline in the same file.
  std::vector<int64_t> active, sent;
  for (const auto& rs : want.round_stats) {
    active.push_back(rs.active_nodes);
    sent.push_back(rs.messages_sent);
  }
  json.BeginRecord();
  json.Field("source", "bench_parallel");
  json.Field("experiment", "parallel_scaling_serial_baseline");
  json.Field("n", n);
  json.Field("k", k);
  json.Field("rounds", want.engine_rounds);
  json.Field("messages", want.messages);
  json.Field("serial_seconds", serial_s);
  json.Field("round_active_nodes", active);
  json.Field("round_messages", sent);
  json.Field("round_seconds", serial_rounds);
  bench::HostFields(json);
  return ok;
}

bool RunRelabelAblation(const Graph& tree, const std::vector<int64_t>& ids,
                        int k, int reps, bench::JsonWriter& json) {
  const int n = tree.NumNodes();
  std::cout << "Relabel ablation: BFS mailbox layout vs caller labels\n";

  local::Network plain(tree, ids);
  RakeCompressResult want;
  std::vector<double> unused;
  const double plain_s = Measure(plain, k, reps, want, unused);

  local::NetworkOptions opt;
  opt.relabel = true;
  local::Network relabeled(tree, ids, opt);
  RakeCompressResult got;
  const double relabel_s = Measure(relabeled, k, reps, got, unused);

  const bool identical = SameTranscript(got, want);
  std::cout << "  default: " << plain_s << " s   relabel: " << relabel_s
            << " s   speedup " << plain_s / relabel_s
            << "x  identical=" << (identical ? "yes" : "NO (BUG)") << "\n";

  json.BeginRecord();
  json.Field("source", "bench_parallel");
  json.Field("experiment", "relabel_ablation");
  json.Field("n", n);
  json.Field("k", k);
  json.Field("default_seconds", plain_s);
  json.Field("relabel_seconds", relabel_s);
  json.Field("speedup", plain_s / relabel_s);
  json.Field("transcripts_identical", identical);
  bench::HostFields(json);
  return identical;
}

}  // namespace
}  // namespace treelocal

namespace {

[[noreturn]] void Usage(const std::string& err) {
  std::cerr << "bench_parallel: " << err << "\n"
            << "usage: bench_parallel [--n=N] [--reps=R] [--k=K] "
               "[--threads=a,b,c]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using treelocal::tools::kIntMax;
  using treelocal::tools::ParseInt;
  int n = 1 << 20;
  int reps = 3;
  int k = 2;
  std::vector<int> thread_counts = {1, 2, 4, 8};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto intval = [&](size_t prefix, const char* flag, int64_t lo) {
      return static_cast<int>(
          ParseInt(arg.substr(prefix), flag, lo, kIntMax, Usage));
    };
    if (arg.rfind("--n=", 0) == 0) {
      n = intval(4, "--n", 2);
    } else if (arg.rfind("--reps=", 0) == 0) {
      reps = intval(7, "--reps", 1);
    } else if (arg.rfind("--k=", 0) == 0) {
      k = intval(4, "--k", 2);
    } else if (arg.rfind("--threads=", 0) == 0) {
      thread_counts.clear();
      std::stringstream ss(arg.substr(10));
      std::string tok;
      while (std::getline(ss, tok, ',')) {
        thread_counts.push_back(static_cast<int>(
            ParseInt(tok, "--threads", 1,
                     treelocal::support::ThreadPool::kMaxThreads, Usage)));
      }
      if (thread_counts.empty()) {
        Usage("--threads needs a comma-separated list of thread counts");
      }
    } else {
      Usage("unknown flag " + arg);
    }
  }

  treelocal::Graph tree = treelocal::UniformRandomTree(n, 77);
  auto ids = treelocal::DefaultIds(n, 78);

  treelocal::bench::JsonWriter json;
  bool ok = treelocal::RunScaling(tree, ids, k, reps, thread_counts, json);
  ok &= treelocal::RunRelabelAblation(tree, ids, k, reps, json);
  json.MergeAs("bench_parallel", "BENCH_engine.json");
  std::cout << (ok ? "  wrote BENCH_engine.json\n"
                   : "TRANSCRIPT MISMATCH — failing\n");
  return ok ? 0 : 1;
}
