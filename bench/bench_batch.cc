// Experiment E12: multi-instance throughput over one shared topology. Two
// measurements, each gated on bit-identity with solo Network runs:
//   * batched_k_sweep_dedup: a rake-compress k-sweep (the engine-bound
//     phase of every Theorem 12/15 pipeline) on one reused Network, run
//     once per k vs once per distinct RakeCompressCanonicalK with the
//     results fanned back out — the saving the daemon's coalesced passes
//     and the Thm 12 k-sweep get from canonical-k dedup;
//   * bitplane_cv_batch: B = 64 Cole-Vishkin instances as bit-plane lanes
//     vs B solo scalar ColeVishkin3Color runs.
// The process exits non-zero on any divergence, which is what CI gates on,
// and records the throughput ratios in BENCH_engine.json.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/algos/cole_vishkin.h"
#include "src/core/rake_compress.h"
#include "src/graph/generators.h"
#include "src/local/bitplane.h"
#include "src/local/network.h"
#include "src/support/digest.h"
#include "src/support/rng.h"

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

// BFS parent orientation rooted at 0 (the bench trees are connected).
std::vector<int> BfsParents(const Graph& tree) {
  std::vector<int> parent(tree.NumNodes(), -1);
  std::vector<char> seen(tree.NumNodes(), 0);
  std::vector<int> order = {0};
  seen[0] = 1;
  for (size_t i = 0; i < order.size(); ++i) {
    int v = order[i];
    for (int u : tree.Neighbors(v)) {
      if (!seen[u]) {
        seen[u] = 1;
        parent[u] = v;
        order.push_back(u);
      }
    }
  }
  return parent;
}

// Instance b as its own solo ColeVishkin3Color run, in the bit-plane
// runner's transcript type. The level-0 digest chain is a pure function of
// the per-round stats (ChainDigest with a zero content accumulator, as
// every engine folds it), so it is derived from the solo RoundStats.
std::vector<local::bitplane::CvInstanceTranscript> SoloCvTranscripts(
    const Graph& tree, const std::vector<int>& parent,
    const std::vector<std::vector<int64_t>>& ids,
    const std::vector<int64_t>& spaces) {
  std::vector<local::bitplane::CvInstanceTranscript> out(ids.size());
  for (size_t b = 0; b < ids.size(); ++b) {
    const ColeVishkinResult r =
        ColeVishkin3Color(tree, ids[b], parent, spaces[b]);
    auto& t = out[b];
    t.colors = r.colors;
    t.rounds = r.rounds;
    t.messages = r.messages;
    t.round_stats = r.round_stats;
    for (const local::RoundStats& rs : r.round_stats) {
      t.last_digest = support::ChainDigest(t.last_digest, rs.active_nodes,
                                           rs.messages_sent, 0);
      t.round_digests.push_back(t.last_digest);
    }
  }
  return out;
}

bool Identical(const local::bitplane::CvInstanceTranscript& a,
               const local::bitplane::CvInstanceTranscript& b) {
  return a.colors == b.colors && a.rounds == b.rounds &&
         a.messages == b.messages && a.round_stats == b.round_stats &&
         a.round_digests == b.round_digests && a.last_digest == b.last_digest;
}

// Bit-plane CV acceptance: B = 64 Cole-Vishkin instances (per-instance ID
// assignments) over one shared rooted tree, B solo scalar runs vs the
// bit-plane runner. The identity gate compares EVERY transcript field —
// colors, rounds, messages, per-round stats, digest chain — and a
// divergence fails the process, same as the dedup gate above. n is capped
// at 2^16 (the size the acceptance floor applies to) so the B scalar runs
// stay quick.
bool RunBitplaneAcceptance(int n_requested, int reps,
                           bench::JsonWriter& json) {
  constexpr int kAcceptanceN = 1 << 16;
  const int n = std::min(n_requested, kAcceptanceN);
  const int batch = 64;
  std::cout << "Bitplane acceptance: CV 3-coloring on a " << n
            << "-node uniform tree, B=" << batch
            << " bit-plane lanes vs B solo scalar runs\n";

  const Graph tree = UniformRandomTree(n, 31);
  const std::vector<int> parent = BfsParents(tree);
  const int64_t space = int64_t{n} * n * n;
  std::vector<std::vector<int64_t>> ids(batch);
  for (int b = 0; b < batch; ++b) ids[b] = DistinctIds(n, 40 + b, space - 1);
  const std::vector<int64_t> spaces(batch, space);

  auto scalar = SoloCvTranscripts(tree, parent, ids, spaces);
  double scalar_s = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    auto t0 = Clock::now();
    scalar = SoloCvTranscripts(tree, parent, ids, spaces);
    scalar_s = std::min(scalar_s, Seconds(t0));
  }

  local::bitplane::BitplaneCvBatch runner(tree, parent);
  auto planes = runner.Run(ids, spaces);
  double planes_s = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    auto t0 = Clock::now();
    planes = runner.Run(ids, spaces);
    planes_s = std::min(planes_s, Seconds(t0));
  }

  bool identical = true;
  for (int b = 0; b < batch; ++b) identical &= Identical(scalar[b], planes[b]);
  const double speedup = scalar_s / planes_s;
  const bool acceptance = n >= kAcceptanceN;

  json.BeginRecord();
  json.Field("source", "bench_batch");
  json.Field("experiment", "bitplane_cv_batch");
  json.Field("family", "uniform-random");
  json.Field("n", n);
  json.Field("edges", tree.NumEdges());
  json.Field("batch", batch);
  json.Field("scalar_seconds", scalar_s);
  json.Field("bitplane_seconds", planes_s);
  json.Field("speedup", speedup);
  json.Field("bitplane_speedup", speedup);
  json.Field("transcripts_identical", identical);
  json.Field("acceptance", acceptance);

  std::cout << "  identical=" << (identical ? "yes" : "NO (BUG)")
            << "  scalar: " << scalar_s << " s   bitplane: " << planes_s
            << " s   throughput: " << speedup << "x\n";
  return identical;
}

}  // namespace
}  // namespace treelocal

int main(int argc, char** argv) {
  // --n=<nodes> (default 2^20), --ks=<comma list> (overrides the dedup
  // sweep's k list), --reps=<best-of> (default 3).
  int n = 1 << 20;
  int reps = 3;
  std::vector<int> ks = {2,  3,  4,  6,  8,   12,  16,  24,
                         32, 48, 64, 96, 128, 192, 256, 384};
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--n=", 0) == 0) {
      n = std::atoi(arg.c_str() + 4);
      if (n < 2) {
        std::cerr << "bench_batch: --n must be an integer >= 2\n";
        return 1;
      }
    } else if (arg.rfind("--reps=", 0) == 0) {
      reps = std::max(1, std::atoi(arg.c_str() + 7));
    } else if (arg.rfind("--ks=", 0) == 0) {
      ks.clear();
      std::stringstream ss(arg.substr(5));
      std::string item;
      while (std::getline(ss, item, ',')) ks.push_back(std::atoi(item.c_str()));
      if (ks.empty()) {
        std::cerr << "bench_batch: --ks needs a comma-separated k list\n";
        return 1;
      }
      for (int k : ks) {
        if (k < 2) {
          std::cerr << "bench_batch: every k must be >= 2\n";
          return 1;
        }
      }
    } else {
      std::cerr << "bench_batch: unknown flag " << arg << "\n";
      return 1;
    }
  }
  treelocal::Graph tree = treelocal::UniformRandomTree(n, 31);
  auto ids = treelocal::DefaultIds(n, 32);
  treelocal::bench::JsonWriter json;
  bool ok = treelocal::RunDedupAcceptance(tree, ids, ks, reps, json);
  ok &= treelocal::RunBitplaneAcceptance(n, reps, json);
  json.MergeAs("bench_batch", "BENCH_engine.json");
  std::cout << "  wrote BENCH_engine.json\n";
  return ok ? 0 : 1;
}
