// Shared pieces of the end-to-end benchmark: run options, the result
// record, clock/RSS readers, order statistics and the in-memory span
// tracer. The benchmark only calls the library's public functions; every
// span is recorded here, around those calls.
#ifndef TREELOCAL_PERFBENCH_BENCH_H_
#define TREELOCAL_PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

using treelocal::bench::SecondsSince;
inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;  // length of the measured solve loop
  bool trace = false;
  int n = 0;            // input size (nodes)
  int setups = 3;       // set-ups per run; setup_s is their median
  bool fault = false;   // daemon negative control: arm a FaultInjector
  std::string out_dir;  // scratch files and the Chrome trace
  std::string graph_convert;  // path of the graph_convert binary
};

// What one run reports. `metrics` holds values only; units live in
// BENCHMARK.json and are attached by run.py.
struct Result {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;  // first few reasons, for the log
  std::map<std::string, double> metrics;
  std::map<std::string, double> info;  // sample counts and parameters

  void Fail(const std::string& why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(why);
  }
};

inline double PeakRssMb() {
  return treelocal::bench::PeakRssBytes() / 1048576.0;
}
inline double RssMb() {
  return treelocal::bench::CurrentRssBytes() / 1048576.0;
}
// File-backed resident pages: the mapped .cgr plus the binary's own text.
inline double FileRssMb() {
  return treelocal::bench::ReadProcStatusKb("RssFile:") / 1048576.0;
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

// Nearest-rank percentile, q in (0, 1]. With fewer than 1/(1-q) samples
// this is the maximum; the sample count is reported beside it.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(q * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

// In-memory span recorder, written out once as Chrome trace-event JSON.
// Disabled tracers record nothing, so the measured runs pay one branch.
// Thread-safe: the daemon workload records from every client thread.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  bool on() const { return on_; }

  // Opens a span; returns its id (-1 when off). `track` groups the spans
  // of one request or one connection in the viewer.
  int Begin(const std::string& name, int parent = -1, int64_t track = 0) {
    if (!on_) return -1;
    const double t = SecondsSince(origin_);
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, t, t, parent, track});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) {
    if (id < 0) return;
    const double t = SecondsSince(origin_);
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id].end = t;
  }
  // A span with explicit bounds (for intervals measured before it could
  // be opened, e.g. the phases of a daemon request, timed by its client).
  int Add(const std::string& name, Clock::time_point start,
          Clock::time_point end, int parent = -1, int64_t track = 0) {
    if (!on_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, SecondsBetween(origin_, start),
                      SecondsBetween(origin_, end), parent, track});
    return static_cast<int>(spans_.size()) - 1;
  }

  // Duration of `id` minus the part its direct children cover (children
  // of one span never overlap here: each is a sequential call).
  double SelfSeconds(int id) const {
    std::lock_guard<std::mutex> lock(mu_);
    double self = spans_[id].end - spans_[id].start;
    for (const Span& s : spans_) {
      if (s.parent == id) self -= s.end - s.start;
    }
    return self;
  }

  bool WriteChrome(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start = 0, end = 0;  // seconds since origin_
    int parent = -1;
    int64_t track = 0;
  };
  const bool on_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Closes its span at scope exit and adds the duration to `*sum`.
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name, int parent, double* sum)
      : tracer_(tracer), id_(tracer.Begin(name, parent)), sum_(sum),
        t0_(Clock::now()) {}
  ~Scope() {
    tracer_.End(id_);
    if (sum_) *sum_ += SecondsSince(t0_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
  double* sum_;
  Clock::time_point t0_;
};

Result RunThm12(const Options& opt, Tracer& tracer);
Result RunThm15(const Options& opt, Tracer& tracer);
Result RunOoc(const Options& opt, Tracer& tracer);
Result RunDaemon(const Options& opt, Tracer& tracer);

}  // namespace perfbench

#endif  // TREELOCAL_PERFBENCH_BENCH_H_
