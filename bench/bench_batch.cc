// Experiment E12: multi-instance throughput over one shared topology,
// gated on bit-identity with solo Network runs. batched_k_sweep_dedup runs
// a rake-compress k-sweep (the engine-bound phase of every Theorem 12/15
// pipeline) on one reused Network, once per k vs once per distinct
// RakeCompressCanonicalK with the results fanned back out — the saving the
// daemon's coalesced passes and the Thm 12 k-sweep get from canonical-k
// dedup. The process exits non-zero on any divergence, which is what CI
// gates on, and records the throughput ratio in BENCH_engine.json.
#include <algorithm>
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
#include "tools/flag_parse.h"

namespace treelocal {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool Identical(const RakeCompressResult& a, const RakeCompressResult& b) {
  return a.iteration == b.iteration && a.compressed == b.compressed &&
         a.num_iterations == b.num_iterations &&
         a.engine_rounds == b.engine_rounds && a.messages == b.messages &&
         a.round_stats == b.round_stats;
}

// Shared-transcript dedup acceptance: a k-sweep whose tail sits at or above
// Delta (every such k provably shares one transcript). Both sides run on
// one pre-constructed, warmed, reusable engine and take best-of-reps, so
// the comparison is round throughput: B runs (one per k) against U runs
// (one per canonical k) plus the fan-out copy. Gates the fanned-out
// results' bit-identity against the per-k runs.
bool RunDedupAcceptance(const Graph& tree, const std::vector<int64_t>& ids,
                        const std::vector<int>& ks, int reps,
                        bench::JsonWriter& json) {
  const int n = tree.NumNodes();
  const int delta = tree.MaxDegree();
  const int batch = static_cast<int>(ks.size());
  const CanonicalKGroups groups = GroupByCanonicalK(ks, delta);
  const int unique = static_cast<int>(groups.unique.size());
  std::cout << "Dedup acceptance: k-sweep B=" << batch << " on Delta="
            << delta << " tree collapses to U=" << unique << " runs\n";

  local::Network net(tree, ids);
  std::vector<RakeCompressResult> full(batch);
  for (int b = 0; b < batch; ++b) full[b] = RunRakeCompress(net, ks[b]);
  double full_s = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    auto t0 = Clock::now();
    for (int b = 0; b < batch; ++b) full[b] = RunRakeCompress(net, ks[b]);
    full_s = std::min(full_s, Seconds(t0));
  }

  std::vector<RakeCompressResult> deduped(batch);
  double deduped_s = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    auto t0 = Clock::now();
    std::vector<RakeCompressResult> runs(unique);
    for (int u = 0; u < unique; ++u) {
      runs[u] = RunRakeCompress(net, groups.unique[u]);
    }
    for (int b = 0; b < batch; ++b) deduped[b] = runs[groups.slot[b]];
    deduped_s = std::min(deduped_s, Seconds(t0));
  }

  bool identical = true;
  for (int b = 0; b < batch; ++b) identical &= Identical(full[b], deduped[b]);

  json.BeginRecord();
  json.Field("source", "bench_batch");
  json.Field("experiment", "batched_k_sweep_dedup");
  json.Field("n", n);
  json.Field("max_degree", delta);
  json.Field("batch", batch);
  json.Field("ks", ks);
  json.Field("unique_instances", unique);
  json.Field("dedup_factor", double(batch) / unique);
  json.Field("full_seconds", full_s);
  json.Field("deduped_seconds", deduped_s);
  json.Field("speedup", full_s / deduped_s);
  json.Field("transcripts_identical", identical);

  std::cout << "  identical=" << (identical ? "yes" : "NO (BUG)")
            << "  full: " << full_s << " s   deduped: " << deduped_s
            << " s   speedup: " << full_s / deduped_s << "x ("
            << double(batch) / unique << "x fewer runs)\n";
  return identical;
}

}  // namespace
}  // namespace treelocal

namespace {

[[noreturn]] void Usage(const std::string& err) {
  std::cerr << "bench_batch: " << err << "\n"
            << "usage: bench_batch [--n=N] [--ks=k1,k2,...] [--reps=R]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using treelocal::tools::kIntMax;
  using treelocal::tools::ParseInt;
  // --n=<nodes> (default 2^20), --ks=<comma list> (overrides the dedup
  // sweep's k list), --reps=<best-of> (default 3).
  int n = 1 << 20;
  int reps = 3;
  std::vector<int> ks = {2,  3,  4,  6,  8,   12,  16,  24,
                         32, 48, 64, 96, 128, 192, 256, 384};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--n=", 0) == 0) {
      n = static_cast<int>(ParseInt(arg.substr(4), "--n", 2, kIntMax, Usage));
    } else if (arg.rfind("--reps=", 0) == 0) {
      reps = static_cast<int>(
          ParseInt(arg.substr(7), "--reps", 1, kIntMax, Usage));
    } else if (arg.rfind("--ks=", 0) == 0) {
      ks.clear();
      std::stringstream ss(arg.substr(5));
      std::string item;
      while (std::getline(ss, item, ',')) {
        ks.push_back(
            static_cast<int>(ParseInt(item, "--ks entry", 2, kIntMax, Usage)));
      }
      if (ks.empty()) Usage("--ks needs a comma-separated k list");
    } else {
      Usage("unknown flag " + arg);
    }
  }
  treelocal::Graph tree = treelocal::UniformRandomTree(n, 31);
  auto ids = treelocal::DefaultIds(n, 32);
  treelocal::bench::JsonWriter json;
  const bool ok = treelocal::RunDedupAcceptance(tree, ids, ks, reps, json);
  json.MergeAs("bench_batch", "BENCH_engine.json");
  std::cout << "  wrote BENCH_engine.json\n";
  return ok ? 0 : 1;
}
