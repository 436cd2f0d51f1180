// perfbench: one run of one workload of the end-to-end benchmark.
//
//   perfbench --workload W --seed S --seconds R --trace 0|1 --n N
//             [--setups K] [--fault]
//             --out-dir DIR --graph-convert PATH
//
// Prints one JSON line: attempted/failed operations, the metric values
// (end-to-end ones untraced, per-layer ones traced) and run details.
// run.py builds this binary, supplies each workload's parameters from
// manifest.json and turns the line into the benchmark's result record.
// A traced run also writes DIR/trace-<workload>-<seed>.json in Chrome
// trace-event format.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "perfbench/bench.h"
#include "src/support/json.h"

namespace perfbench {

bool Tracer::WriteChrome(const std::string& path) const {
  std::ofstream out(path);
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": %lld, \"ts\": %.3f, "
                  "\"dur\": %.3f",
                  static_cast<long long>(s.track), s.start * 1e6,
                  (s.end - s.start) * 1e6);
    out << (i ? ",\n" : "") << "{\"name\": " << treelocal::json::Quote(s.name)
        << ", " << buf << ", \"args\": {\"id\": " << i
        << ", \"parent\": " << s.parent << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

namespace {

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.15g", v);
  return buf;
}

std::string Object(const std::map<std::string, double>& m) {
  std::ostringstream out;
  out << "{";
  for (auto it = m.begin(); it != m.end(); ++it) {
    out << (it == m.begin() ? "" : ", ") << treelocal::json::Quote(it->first)
        << ": " << Num(it->second);
  }
  out << "}";
  return out.str();
}

[[noreturn]] void Usage(const std::string& err) {
  std::cerr << "perfbench: " << err
            << "\nusage: perfbench --workload W --seed S --seconds R "
               "--trace 0|1 --n N [--setups K] [--fault] --out-dir DIR "
               "--graph-convert PATH\n";
  std::exit(2);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--fault") {
      opt.fault = true;
      continue;
    }
    if (i + 1 >= argc) Usage(a + " needs a value");
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::stoull(v);
    } else if (a == "--seconds") {
      opt.seconds = std::stod(v);
    } else if (a == "--trace") {
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
      opt.trace = v == "1";
    } else if (a == "--n") {
      opt.n = std::stoi(v);
    } else if (a == "--setups") {
      opt.setups = std::stoi(v);
    } else if (a == "--out-dir") {
      opt.out_dir = v;
    } else if (a == "--graph-convert") {
      opt.graph_convert = v;
    } else {
      Usage("unknown flag " + a);
    }
  }
  if (opt.n < 2 || opt.setups < 1 || opt.seconds <= 0 ||
      opt.out_dir.empty()) {
    Usage("--n >= 2, --setups >= 1, --seconds > 0 and --out-dir are "
          "required");
  }
  if (opt.fault && opt.workload != "daemon_closed_loop_mixed") {
    Usage("--fault applies to daemon_closed_loop_mixed only");
  }

  Tracer tracer(opt.trace);
  Result res;
  try {
    if (opt.workload == "thm12_recursive_coloring") {
      res = RunThm12(opt, tracer);
    } else if (opt.workload == "thm15_recursive_edge_coloring") {
      res = RunThm15(opt, tracer);
    } else if (opt.workload == "ooc_uniform_rake_compress") {
      if (opt.graph_convert.empty()) Usage("--graph-convert is required");
      res = RunOoc(opt, tracer);
    } else if (opt.workload == "daemon_closed_loop_mixed") {
      res = RunDaemon(opt, tracer);
    } else {
      Usage("unknown workload '" + opt.workload + "'");
    }
  } catch (const std::exception& e) {
    // A failure outside any counted operation (set-up, reference runs).
    ++res.attempted;
    res.Fail(std::string("run aborted: ") + e.what());
  }
  std::string trace_path;
  if (opt.trace) {
    trace_path = opt.out_dir + "/trace-" + opt.workload + "-" +
                 std::to_string(opt.seed) + ".json";
    if (!tracer.WriteChrome(trace_path)) {
      ++res.attempted;
      res.Fail("cannot write " + trace_path);
    }
  }

  std::ostringstream failures;
  for (size_t i = 0; i < res.failures.size(); ++i) {
    failures << (i ? ", " : "") << treelocal::json::Quote(res.failures[i]);
  }
#ifdef NDEBUG
  const char* build_type = "Release";
#else
  const char* build_type = "Debug";
#endif
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#else
  const char* compiler = "gcc " __VERSION__;
#endif
  std::cout << "{\"attempted\": " << res.attempted
            << ", \"failed\": " << res.failed << ", \"failures\": ["
            << failures.str() << "], \"metrics\": " << Object(res.metrics)
            << ", \"info\": " << Object(res.info)
            << ", \"compiler\": " << treelocal::json::Quote(compiler)
            << ", \"build_type\": \"" << build_type << "\""
            << ", \"trace_file\": " << treelocal::json::Quote(trace_path)
            << "}" << std::endl;
  return res.failed == 0 ? 0 : 1;
}
