#ifndef TREELOCAL_SERVE_DISPATCH_H_
#define TREELOCAL_SERVE_DISPATCH_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/serve/protocol.h"
#include "src/serve/registry.h"
#include "src/support/fault.h"

namespace treelocal::serve {

// The daemon's solve queue and its single dispatcher thread: the component
// that turns "batch" into "concurrent users". Requests are admitted into a
// FIFO; the dispatcher pops the head and then sweeps the rest of the queue
// for requests it can serve in the SAME pass:
//
//  - kRakeCompress on the same resident graph coalesces into one pass over
//    one reused Network: one engine run per DISTINCT canonical parameter
//    (RakeCompressCanonicalK), run one after another. Requests whose k's
//    are provably transcript-identical share a single run and fan its
//    result back out. Results are bit-identical to a solo Network run of
//    the same (graph, k) — same rounds, messages, and digest chain — which
//    is the serving-correctness contract the concurrent tests pin.
//  - kThm12Node on the same graph and problem coalesces via
//    SolveNodeProblemOnTreeBatch (every phase runs once per distinct
//    canonical k on one engine).
//  - kThm15Edge and kDecomposition run solo.
//
// Each rake-compress run is driven in RunUntil slices. At every slice
// boundary the dispatcher checks every live member of the pass for
// cancellation, and the running group's members for their round budgets. A
// cancelled member's group keeps running for its other members (their
// transcripts must not change) but its result is dropped; a group whose
// members are all terminal is stopped at the boundary, or skipped if it has
// not started. A run over its budget surfaces as the engine's
// MaxRoundsExceededError and fails only that group's members, with the
// reason string; each group's rounds and messages are counted in the stats
// before its members finish.
class Dispatcher {
 public:
  struct Options {
    int max_batch = 16;     // widest coalesced pass
    int slice_rounds = 64;  // RunUntil pause cadence (cancel latency bound)
    int engine_threads = 1;
    // Admission cap: a Submit that would grow the queue past this bound is
    // bounced with Status::kRejected (and counted in stats.rejected)
    // instead of being enqueued — backpressure surfaces to the client as a
    // structured retry signal rather than unbounded daemon memory. A cap of
    // 0 rejects every solve whose queue slot is not already free (i.e. all
    // of them), which the tests use for deterministic full-queue coverage.
    int max_queue = 1024;
    // Deterministic fault injection into the coalesced engine pass (the
    // bench's negative control: an injected fault must surface as kFailed,
    // never as a wrong digest). Non-owning; null = no faults.
    support::FaultInjector* fault = nullptr;
  };

  Dispatcher(const Registry* registry, const Options& options);
  ~Dispatcher();

  // Validates and enqueues a solve. On success returns kOk and sets
  // *ticket; otherwise returns the error and sets *error. The ticket holds
  // its own reference to the graph until it reaches a terminal state, so a
  // registry eviction cannot pull a graph out from under a queued or
  // running solve.
  Status Submit(std::shared_ptr<const ResidentGraph> graph,
                const SolveSpec& spec, uint64_t* ticket, std::string* error);

  // Snapshot of a ticket; block = wait for a terminal state. False if the
  // ticket is unknown.
  bool Fetch(uint64_t ticket, bool block, TicketState* state,
             SolveResult* result, std::string* why);

  // Requests cancellation. Queued tickets cancel immediately; running ones
  // at the next slice boundary (kRakeCompress) or not at all once a solo
  // run has started — the returned state is what the ticket reached.
  // False if the ticket is unknown.
  bool Cancel(uint64_t ticket, TicketState* state);

  // Fills the dispatcher-owned counters of *stats (queue/batch/engine
  // fields; the server adds its own).
  void FillStats(ServerStats* stats) const;

  // Stops accepting (subsequent Submits fail kShuttingDown), cancels
  // queued tickets, finishes the in-flight pass, and joins the thread.
  // Idempotent.
  void Stop();

 private:
  struct Ticket;
  using TicketPtr = std::shared_ptr<Ticket>;

  void WorkerLoop();
  std::vector<TicketPtr> CollectBatch(TicketPtr head);
  void RunRakeCompressBatchPass(const std::vector<TicketPtr>& members);
  void RunThm12BatchPass(const std::vector<TicketPtr>& members);
  void RunSolo(const TicketPtr& t);
  void Finish(const TicketPtr& t, TicketState state, const SolveResult& res,
              const std::string& why);

  const Registry* registry_;
  Options options_;

  mutable std::mutex mu_;
  std::condition_variable cv_work_;  // queue became non-empty / stopping
  std::condition_variable cv_done_;  // some ticket reached a terminal state
  std::deque<TicketPtr> queue_;
  std::unordered_map<uint64_t, TicketPtr> tickets_;
  uint64_t next_ticket_ = 1;
  bool stopping_ = false;

  // Counters (guarded by mu_).
  uint64_t submitted_ = 0;
  uint64_t completed_ = 0;
  uint64_t failed_ = 0;
  uint64_t cancelled_ = 0;
  uint64_t rejected_ = 0;
  uint64_t batches_ = 0;
  uint64_t batched_requests_ = 0;
  uint64_t max_batch_seen_ = 0;
  uint64_t max_queue_depth_ = 0;
  uint64_t inflight_ = 0;
  uint64_t engine_rounds_ = 0;
  uint64_t engine_messages_ = 0;

  std::thread worker_;
};

}  // namespace treelocal::serve

#endif  // TREELOCAL_SERVE_DISPATCH_H_
