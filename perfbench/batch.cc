// The three batch workloads: a Theorem 12 node pipeline, a Theorem 15
// edge pipeline and the graph_convert -> mmap -> rake-compress path.
//
// Each run sets up `setups` times (setup_s is the median), then solves
// back to back for `seconds`. Every output is checked outside the timed
// region. A traced run spends half its time on untraced solves, which
// give the reference outputs and the untraced solve_s, and half on traced
// solves, whose outputs must equal the untraced ones.
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "perfbench/bench.h"
#include "src/algos/base_algorithms.h"
#include "src/core/complexity.h"
#include "src/core/rake_compress.h"
#include "src/core/transform_edge.h"
#include "src/core/transform_node.h"
#include "src/graph/algorithms.h"
#include "src/graph/compact_graph.h"
#include "src/graph/generators.h"
#include "src/graph/semigraph.h"
#include "src/local/network.h"
#include "src/local/parallel_network.h"
#include "src/problems/coloring.h"
#include "src/problems/edge_coloring.h"
#include "src/support/rng.h"

extern char** environ;

namespace perfbench {
namespace {

using namespace treelocal;

// Engine lanes of the thm15 workload's ParallelNetwork.
constexpr int kThm15Threads = 2;

// k as run_pipeline chooses it for arboricity 1.
int PipelineK(int n) { return std::max(5, ChooseK(n, QuadraticF())); }

int64_t IdSpaceOf(const std::vector<int64_t>& ids) {
  return ids.empty() ? 1 : *std::max_element(ids.begin(), ids.end()) + 1;
}

using bench::SameLabeling;

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

// Runs `solve` back to back while another one still fits in `seconds`
// (at least once). `solve` returns the seconds of the solve proper; the
// loop also records the time to a checked output (solve plus `solve`'s
// own checks). Exceptions count as failed operations.
void SolveLoop(double seconds, Result& res, std::vector<double>& solve_s,
               std::vector<double>& verified_s,
               const std::function<double()>& solve) {
  const Clock::time_point start = Clock::now();
  double last = 0;
  do {
    ++res.attempted;
    const Clock::time_point t0 = Clock::now();
    try {
      solve_s.push_back(solve());
    } catch (const std::exception& e) {
      res.Fail(std::string("solve threw: ") + e.what());
    }
    last = SecondsSince(t0);
    if (solve_s.size() > verified_s.size()) verified_s.push_back(last);
  } while (SecondsSince(start) + last <= seconds);
}

// The end-to-end metrics every batch workload reports.
void EndToEnd(Result& res, const std::vector<double>& setup_s,
              const std::vector<double>& solve_s,
              const std::vector<double>& verified_s, double peak_rss_mb) {
  res.metrics["setup_s"] = Median(setup_s);
  res.metrics["solve_s"] = Median(solve_s);
  res.metrics["peak_rss_mb"] = peak_rss_mb;
  // A batch "request" is one solve up to its checked output, issued back
  // to back by a single caller. Runs hold fewer than 100 solves, so
  // req_p99_ms here is the maximum of info.solves solves, not a
  // percentile; every workload must still report every end-to-end metric.
  res.metrics["req_p50_ms"] = 1e3 * Median(verified_s);
  res.metrics["req_p99_ms"] = 1e3 * Percentile(verified_s, 0.99);
  res.info["setups"] = static_cast<double>(setup_s.size());
  res.info["solves"] = static_cast<double>(solve_s.size());
}

// ---------------------------------------------------------------------------
// thm12_recursive_coloring

// Theorem 12's three phases rebuilt from public calls, one span each; the
// same steps, in the same order, as SolveNodeProblemOnTree.
struct Thm12Phases {
  HalfEdgeLabeling labeling;
  double solve = 0, engine_build = 0, rake_compress = 0, semigraph = 0,
         node_base = 0, gather_leaders = 0, component_leaders = 0,
         complete_nodes = 0, validate = 0,
         unattributed = 0, rake_round_s = 0;
  int64_t rake_messages = 0, wakes = 0;
  int node_base_rounds = 0, rake_components = 0, max_rake_component = 0;
  bool valid = false;
};

Thm12Phases TracedThm12(const NodeProblem& problem, const Graph& tree,
                        const std::vector<int64_t>& ids, int64_t id_space,
                        int k, Tracer& tracer, int parent) {
  Thm12Phases p;
  const Clock::time_point t0 = Clock::now();
  const int solve = tracer.Begin("solve", parent);
  p.labeling = HalfEdgeLabeling(tree);
  std::optional<local::Network> net;
  {
    Scope s(tracer, "local.engine_build", solve, &p.engine_build);
    net.emplace(tree, ids);
  }
  net->set_record_round_times(true);
  RakeCompressResult rc;
  {
    Scope s(tracer, "core.rake_compress", solve, &p.rake_compress);
    rc = RunRakeCompress(*net, k);
  }
  p.rake_round_s = Sum(net->round_seconds());
  p.rake_messages = rc.messages;
  p.wakes += net->wakes();
  net->set_record_round_times(false);

  const int n = tree.NumNodes();
  std::vector<char> compressed_mask(n, 0), raked_mask(n, 0);
  for (int v = 0; v < n; ++v) {
    (rc.compressed[v] ? compressed_mask : raked_mask)[v] = 1;
  }
  {
    std::optional<SemiGraph> tc;
    {
      Scope s(tracer, "graph.semigraph", solve, &p.semigraph);
      tc.emplace(SemiGraph::NodeInduced(tree, compressed_mask));
    }
    Scope s(tracer, "algos.node_base", solve, &p.node_base);
    p.node_base_rounds =
        RunNodeBase(*net, problem, *tc, id_space, p.labeling).rounds;
  }
  p.wakes += net->wakes();

  std::vector<int64_t> leader_key(n, 0);
  std::vector<ComponentLeader> components;
  {
    Scope s(tracer, "core.gather_leaders", solve, &p.gather_leaders);
    std::vector<int> by_order(n);
    std::iota(by_order.begin(), by_order.end(), 0);
    std::sort(by_order.begin(), by_order.end(),
              [&](int x, int y) { return rc.Lower(x, y, ids); });
    for (int r = 0; r < n; ++r) leader_key[by_order[r]] = r;
    Scope leaders(tracer, "graph.component_leaders", s.id(),
                  &p.component_leaders);
    components = MaskedComponentLeaders(tree, raked_mask, leader_key);
  }
  {
    Scope s(tracer, "problems.complete_nodes", solve, &p.complete_nodes);
    for (const ComponentLeader& comp : components) {
      std::vector<int> order = comp.nodes;
      std::sort(order.begin(), order.end(),
                [&](int x, int y) { return leader_key[x] < leader_key[y]; });
      problem.CompleteNodes(tree, order, p.labeling);
      p.max_rake_component =
          std::max(p.max_rake_component, static_cast<int>(order.size()));
    }
  }
  p.rake_components = static_cast<int>(components.size());
  {
    Scope s(tracer, "problems.validate", solve, &p.validate);
    p.valid = problem.ValidateGraph(tree, p.labeling);
  }
  tracer.End(solve);
  p.solve = SecondsSince(t0);
  p.unattributed = tracer.SelfSeconds(solve);
  return p;
}

}  // namespace

Result RunThm12(const Options& opt, Tracer& tracer) {
  Result res;
  const int root = tracer.Begin("thm12_recursive_coloring");
  Graph tree;
  std::vector<int64_t> ids;
  std::vector<double> setup_s;
  for (int i = 0; i < opt.setups; ++i) {
    tree = Graph();
    const Clock::time_point t0 = Clock::now();
    {
      Scope s(tracer, "graph.generate", root, nullptr);
      tree = RandomRecursiveTree(opt.n, opt.seed);
      ids = DefaultIds(opt.n, opt.seed);
    }
    setup_s.push_back(SecondsSince(t0));
  }
  const int k = PipelineK(opt.n);
  const int64_t id_space = IdSpaceOf(ids);
  const ColoringProblem problem(ColoringProblem::Mode::kDeltaPlusOne,
                                tree.MaxDegree());
  res.info["k"] = k;

  std::optional<Thm12Result> first;
  std::vector<double> solve_s, verified_s;
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  SolveLoop(untraced_s, res, solve_s, verified_s, [&] {
    const Clock::time_point t0 = Clock::now();
    Thm12Result r = SolveNodeProblemOnTree(problem, tree, ids, id_space, k);
    const double s = SecondsSince(t0);
    std::string why;
    if (!problem.ValidateGraph(tree, r.labeling, &why)) {
      res.Fail("invalid (Delta+1)-coloring: " + why);
    } else if (!first) {
      first = std::move(r);
    } else if (!SameLabeling(tree, r.labeling, first->labeling)) {
      res.Fail("labeling differs between solves");
    }
    return s;
  });
  const double peak = PeakRssMb();
  EndToEnd(res, setup_s, solve_s, verified_s, peak);
  if (!opt.trace || !first) return res;

  std::vector<Thm12Phases> traced;
  std::vector<double> traced_solve_s, traced_verified_s;
  SolveLoop(opt.seconds / 2, res, traced_solve_s, traced_verified_s, [&] {
    traced.push_back(
        TracedThm12(problem, tree, ids, id_space, k, tracer, root));
    const Thm12Phases& p = traced.back();
    if (!p.valid) res.Fail("traced labeling invalid");
    if (!SameLabeling(tree, p.labeling, first->labeling)) {
      res.Fail("traced labeling differs from SolveNodeProblemOnTree");
    }
    return p.solve;
  });
  tracer.End(root);
  if (traced.empty()) return res;  // every traced solve threw
  auto med = [&](double Thm12Phases::*f) {
    std::vector<double> v;
    for (const Thm12Phases& p : traced) v.push_back(p.*f);
    return Median(v);
  };
  const Thm12Phases& last = traced.back();
  auto& m = res.metrics;
  m["graph.generate_s"] = Median(setup_s);  // the whole set-up here
  m["graph.semigraph_s"] = med(&Thm12Phases::semigraph);
  m["local.engine_build_s"] = med(&Thm12Phases::engine_build);
  m["local.rounds"] = first->rounds_total;
  m["local.messages"] = static_cast<double>(first->engine_messages +
                                            first->base_stats.sweep_messages);
  m["local.wakes"] = static_cast<double>(last.wakes);
  m["local.ns_per_message"] = 1e9 * med(&Thm12Phases::rake_round_s) /
                              std::max<int64_t>(1, last.rake_messages);
  m["core.rake_compress_s"] = med(&Thm12Phases::rake_compress);
  m["core.gather_leaders_s"] = med(&Thm12Phases::gather_leaders);
  m["graph.component_leaders_s"] = med(&Thm12Phases::component_leaders);
  m["core.rake_components"] = last.rake_components;
  m["core.max_rake_component"] = last.max_rake_component;
  m["algos.node_base_s"] = med(&Thm12Phases::node_base);
  m["algos.node_base_rounds"] = last.node_base_rounds;
  m["problems.complete_nodes_s"] = med(&Thm12Phases::complete_nodes);
  m["problems.validate_s"] = med(&Thm12Phases::validate);
  m["trace.overhead_s"] = Median(traced_solve_s) - Median(solve_s);
  m["trace.unattributed_s"] = med(&Thm12Phases::unattributed);
  res.info["traced_solves"] = static_cast<double>(traced.size());
  return res;
}

// ---------------------------------------------------------------------------
// thm15_recursive_edge_coloring

Result RunThm15(const Options& opt, Tracer& tracer) {
  Result res;
  const int root = tracer.Begin("thm15_recursive_edge_coloring");
  Graph tree;
  std::vector<int64_t> ids;
  std::unique_ptr<local::ParallelNetwork> net;
  std::vector<double> setup_s, generate_s, engine_build_s, engine_mb;
  for (int i = 0; i < opt.setups; ++i) {
    net.reset();
    tree = Graph();
    const Clock::time_point t0 = Clock::now();
    double generate = 0, build = 0;
    {
      Scope s(tracer, "graph.generate", root, &generate);
      tree = RandomRecursiveTree(opt.n, opt.seed);
      ids = DefaultIds(opt.n, opt.seed);
    }
    const double rss0 = RssMb();
    {
      Scope s(tracer, "local.engine_build", root, &build);
      net = std::make_unique<local::ParallelNetwork>(tree, ids, kThm15Threads);
    }
    setup_s.push_back(SecondsSince(t0));
    generate_s.push_back(generate);
    engine_build_s.push_back(build);
    engine_mb.push_back(RssMb() - rss0);
  }
  const int k = PipelineK(opt.n);
  const int64_t id_space = IdSpaceOf(ids);
  const EdgeColoringProblem problem(
      EdgeColoringProblem::Mode::kEdgeDegreePlusOne, tree.MaxDegree());
  res.info["k"] = k;
  res.info["threads"] = kThm15Threads;

  std::optional<Thm15Result> first;
  std::vector<double> solve_s, verified_s;
  SolveLoop(opt.trace ? opt.seconds / 2 : opt.seconds, res, solve_s,
            verified_s, [&] {
              const Clock::time_point t0 = Clock::now();
              Thm15Result r = SolveEdgeProblemBoundedArboricity(
                  problem, *net, id_space, /*a=*/1, k);
              const double s = SecondsSince(t0);
              std::string why;
              if (!problem.ValidateGraph(tree, r.labeling, &why)) {
                res.Fail("invalid edge coloring: " + why);
              } else if (!first) {
                first = std::move(r);
              } else if (!SameLabeling(tree, r.labeling,
                                       first->labeling)) {
                res.Fail("labeling differs between solves");
              }
              return s;
            });
  EndToEnd(res, setup_s, solve_s, verified_s, PeakRssMb());
  if (!opt.trace || !first) return res;

  // Traced solves: the same call with the engine's per-round timing armed;
  // the named phases are sums of the result's round_seconds_* vectors.
  net->set_record_round_times(true);
  std::vector<double> traced_solve_s, traced_verified_s, decomposition,
      base_sweep, split, unattributed, validate, ns_per_message;
  Thm15Result last;
  SolveLoop(opt.seconds / 2, res, traced_solve_s, traced_verified_s, [&] {
    const Clock::time_point t0 = Clock::now();
    const int span = tracer.Begin("solve", root);
    last = SolveEdgeProblemBoundedArboricity(problem, *net, id_space, 1, k);
    tracer.End(span);
    const double s = SecondsSince(t0);
    decomposition.push_back(Sum(last.round_seconds_decomposition));
    base_sweep.push_back(Sum(last.round_seconds_base_sweep));
    split.push_back(Sum(last.round_seconds_split));
    unattributed.push_back(s - decomposition.back() - base_sweep.back() -
                           split.back());
    ns_per_message.push_back(1e9 * decomposition.back() /
                             std::max<int64_t>(1, last.decomposition.messages));
    double v = 0;
    std::string why;
    bool valid = false;
    {
      Scope sc(tracer, "problems.validate", root, &v);
      valid = problem.ValidateGraph(tree, last.labeling, &why);
    }
    validate.push_back(v);
    if (!valid) {
      res.Fail("traced edge coloring invalid: " + why);
    } else if (!SameLabeling(tree, last.labeling, first->labeling)) {
      res.Fail("traced labeling differs from the untraced solve");
    }
    return s;
  });
  net->set_record_round_times(false);
  tracer.End(root);
  auto& m = res.metrics;
  m["graph.generate_s"] = Median(generate_s);
  m["local.engine_build_s"] = Median(engine_build_s);
  m["local.engine_mb"] = Median(engine_mb);
  m["local.rounds"] = last.rounds_total;
  m["local.messages"] = static_cast<double>(last.engine_messages +
                                            last.base_stats.sweep_messages);
  m["local.wakes"] = static_cast<double>(net->wakes());
  m["local.ns_per_message"] = Median(ns_per_message);
  m["core.decomposition_s"] = Median(decomposition);
  m["core.forest_split_s"] = Median(split);
  m["core.thm15_unattributed_s"] = Median(unattributed);
  m["algos.edge_base_sweep_s"] = Median(base_sweep);
  m["algos.edge_base_rounds"] = last.base_stats.rounds;
  m["problems.validate_s"] = Median(validate);
  m["trace.overhead_s"] = Median(traced_solve_s) - Median(solve_s);
  m["trace.unattributed_s"] = Median(unattributed);
  res.info["traced_solves"] = static_cast<double>(traced_solve_s.size());
  return res;
}

// ---------------------------------------------------------------------------
// ooc_uniform_rake_compress

namespace {

constexpr int kOocK = 3;

// Runs graph_convert to completion; returns its wall seconds and sets
// *peak_mb from the child's rusage. Throws on a non-zero exit.
double Convert(const Options& opt, const std::string& cgr, double* peak_mb) {
  const std::string gen = "uniform:" + std::to_string(opt.n) + ":" +
                          std::to_string(opt.seed);
  std::vector<std::string> args = {opt.graph_convert, "convert", "--gen", gen,
                                   "--output", cgr};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  const Clock::time_point t0 = Clock::now();
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(),
                             environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) throw std::runtime_error("cannot start " + opt.graph_convert);
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("graph_convert failed for " + gen);
  }
  *peak_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return SecondsSince(t0);
}

}  // namespace

Result RunOoc(const Options& opt, Tracer& tracer) {
  Result res;
  const int root = tracer.Begin("ooc_uniform_rake_compress");
  const std::string cgr =
      opt.out_dir + "/ooc-" + std::to_string(opt.seed) + ".cgr";
  std::optional<CompactGraph> graph;
  std::unique_ptr<local::Network> net;
  std::vector<int64_t> ids(opt.n);
  std::iota(ids.begin(), ids.end(), 0);
  std::vector<double> setup_s, convert_s, convert_mb, open_s, build_s,
      engine_mb;
  double file_rss0 = 0;
  for (int i = 0; i < opt.setups; ++i) {
    // The mapping must be gone before graph_convert rewrites the file.
    net.reset();
    graph.reset();
    std::remove(cgr.c_str());
    const Clock::time_point t0 = Clock::now();
    double peak_mb = 0;
    {
      Scope s(tracer, "tools.convert", root, nullptr);
      convert_s.push_back(Convert(opt, cgr, &peak_mb));
    }
    convert_mb.push_back(peak_mb);
    file_rss0 = FileRssMb();
    double open = 0;
    {
      Scope s(tracer, "graph.open_mapped", root, &open);
      graph.emplace(CompactGraph::OpenMapped(cgr));
    }
    open_s.push_back(open);
    const double rss0 = RssMb();
    double build = 0;
    {
      Scope s(tracer, "local.engine_build", root, &build);
      net = std::make_unique<local::Network>(*graph, ids);
    }
    setup_s.push_back(SecondsSince(t0));
    build_s.push_back(build);
    engine_mb.push_back(RssMb() - rss0);
  }

  struct Run {
    int rounds = 0;
    int64_t messages = 0, wakes = 0;
    uint64_t digest = 0;
  };
  std::optional<Run> first;
  auto check = [&](const Run& r) {
    if (!first) {
      first = r;
    } else if (r.digest != first->digest || r.rounds != first->rounds ||
               r.messages != first->messages) {
      res.Fail("rake-compress transcript differs between solves");
    }
  };
  auto solve = [&] {
    const RakeCompressResult rc = RunRakeCompress(*net, kOocK);
    return Run{rc.engine_rounds, rc.messages, net->wakes(), net->last_digest()};
  };
  std::vector<double> solve_s, verified_s;
  SolveLoop(opt.trace ? opt.seconds / 2 : opt.seconds, res, solve_s,
            verified_s, [&] {
              const Clock::time_point t0 = Clock::now();
              const Run r = solve();
              const double sec = SecondsSince(t0);
              check(r);
              return sec;
            });
  EndToEnd(res, setup_s, solve_s, verified_s, PeakRssMb());

  std::vector<double> traced_s, traced_verified_s, rake_s, round_s,
      unattributed;
  double resident_mb = 0;
  if (opt.trace && first) {
    net->set_record_round_times(true);
    SolveLoop(opt.seconds / 2, res, traced_s, traced_verified_s, [&] {
      const Clock::time_point t0 = Clock::now();
      const int span = tracer.Begin("solve", root);
      Run r;
      double rake = 0;
      {
        Scope sc(tracer, "core.rake_compress", span, &rake);
        r = solve();
      }
      tracer.End(span);
      const double sec = SecondsSince(t0);
      rake_s.push_back(rake);
      round_s.push_back(Sum(net->round_seconds()));
      unattributed.push_back(tracer.SelfSeconds(span));
      check(r);
      return sec;
    });
    net->set_record_round_times(false);
    resident_mb = FileRssMb() - file_rss0;
  }
  const double cgr_bytes_per_edge =
      static_cast<double>(graph->MemoryBytes()) /
      std::max<int64_t>(1, graph->NumEdges());
  net.reset();
  graph.reset();
  std::remove(cgr.c_str());

  // Correctness gate, outside the timed region: the compact-backed
  // transcript must equal a CSR-backed Network run of the same tree.
  std::vector<double> csr_s;
  if (first) {
    const Graph tree = MakeTree(TreeFamily::kUniform, opt.n, opt.seed);
    local::Network ref(tree, ids);
    for (int i = 0; i < (opt.trace ? 2 : 1); ++i) {
      const Clock::time_point t0 = Clock::now();
      const RakeCompressResult rc = RunRakeCompress(ref, kOocK);
      csr_s.push_back(SecondsSince(t0));
      if (ref.last_digest() != first->digest ||
          rc.engine_rounds != first->rounds || rc.messages != first->messages) {
        res.Fail("compact-backed digest differs from the CSR-backed run");
      }
    }
  }
  if (!opt.trace || !first) return res;

  tracer.End(root);
  auto& m = res.metrics;
  m["graph.open_mapped_s"] = Median(open_s);
  m["graph.cgr_bytes_per_edge"] = cgr_bytes_per_edge;
  m["graph.resident_mb"] = resident_mb;
  m["tools.convert_s"] = Median(convert_s);
  m["tools.convert_peak_rss_mb"] = Median(convert_mb);
  m["local.engine_build_s"] = Median(build_s);
  m["local.engine_mb"] = Median(engine_mb);
  m["local.rounds"] = first->rounds;
  m["local.messages"] = static_cast<double>(first->messages);
  m["local.wakes"] = static_cast<double>(first->wakes);
  m["local.ns_per_message"] =
      1e9 * Median(round_s) / std::max<int64_t>(1, first->messages);
  // The second CSR solve runs on warm mailboxes, like the compact median.
  m["local.compact_over_csr"] = Median(traced_s) / csr_s.back();
  m["core.rake_compress_s"] = Median(rake_s);
  m["trace.overhead_s"] = Median(traced_s) - Median(solve_s);
  m["trace.unattributed_s"] = Median(unattributed);
  res.info["traced_solves"] = static_cast<double>(traced_s.size());
  return res;
}

}  // namespace perfbench
