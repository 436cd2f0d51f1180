#ifndef TREELOCAL_LOCAL_PARALLEL_NETWORK_H_
#define TREELOCAL_LOCAL_PARALLEL_NETWORK_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/graph/graph.h"
#include "src/local/network.h"
#include "src/support/thread_pool.h"

namespace treelocal::local {

// Network's round pass sharded across a persistent thread pool.
//
// Within a round every node's OnRound is independent — sends become visible
// only at the round barrier — so the active-node worklist is split into T
// contiguous shards that run concurrently. The shared mutable state is
// exactly three structures, each handled without locks or hot-path atomics:
//   * The outbox: Send(v, p) stores through the channel table to the
//     reverse half-edge's slot, and every channel has exactly one sender —
//     concurrent shards write disjoint slots by construction (the same
//     argument that makes the serial engine's last-write-wins dedup purely
//     sender-local).
//   * The message counter: each shard counts its own nodes' sends into a
//     cache-line-padded slot (a node's port dedup is confined to its own
//     shard), reduced into messages_delivered_ at the round barrier. The
//     reduction is a sum, so per-round message counts are independent of
//     the sharding.
//   * Halt/compaction: a node halts only itself (one flag write, no other
//     shard reads it until the barrier), and each shard stable-compacts its
//     own worklist range in place; the barrier stitches the kept prefixes
//     back into one dense worklist, preserving the engine's node order —
//     identical to the serial compaction, with no lock anywhere.
//
// Determinism contract: outputs, per-round RoundStats, message counts, and
// executed round counts are bit-identical to serial Network::Run for every
// num_threads (enforced by the differential suites and the T-sweep stress
// test). This holds because the Algorithm contract makes OnRound
// order-independent within a round (see Algorithm in network.h); the shards
// only reorder within rounds, never across the barrier.
//
// Per-round cost: O(sum of OnRound costs over active nodes / T) per lane
// + O(#active / T) compaction per lane + O(T) reduction + two pool
// synchronizations. Tail rounds with few active nodes are fork/join-bound,
// which is why the pool keeps persistent parked workers instead of spawning.
//
// Reusable like Network: repeated Run calls reuse mailboxes and worklist
// with no reallocation; epochs advance monotonically with the same wrap
// guards. Supports NetworkOptions::relabel identically to Network.
class ParallelNetwork {
 public:
  // Accepts either backend via the implicit GraphView conversions; the
  // view (and the backend behind it) must outlive the engine.
  ParallelNetwork(GraphView graph, std::vector<int64_t> ids,
                  int num_threads);
  ParallelNetwork(GraphView graph, std::vector<int64_t> ids,
                  int num_threads, const NetworkOptions& options);

  // Same contract as Network::Run (same return value, same max_rounds
  // throw, same epoch wrap guarantees). An exception thrown by OnRound on
  // any shard is rethrown here after the round joins; the engine remains
  // usable (the next Run re-initializes all per-run state).
  int Run(Algorithm& alg, int max_rounds);

  // Pause/checkpoint/resume, same contract as Network (the snapshot is
  // canonical, so a checkpoint taken here resumes on any solo engine at any
  // thread count and vice versa — enforced by the snapshot suites).
  int RunUntil(Algorithm& alg, int max_rounds, int pause_at_round);
  bool paused() const { return mid_run_; }
  bool finished() const { return finished_; }
  void Checkpoint(std::ostream& out) const;
  void Resume(std::istream& in);

  ~ParallelNetwork();

  int num_threads() const { return pool_.num_threads(); }
  const Graph& graph() const {
    return graph_.RequireCsr("ParallelNetwork::graph()");
  }
  GraphView view() const { return graph_; }
  const std::vector<int64_t>& ids() const { return ids_; }
  int64_t messages_delivered() const { return messages_delivered_; }
  const std::vector<RoundStats>& round_stats() const { return round_stats_; }

  // Wake-scheduling observability, as in Network: whether the last Run
  // honored the algorithm's schedule, and its message-wake count (both
  // deterministic for every thread count).
  bool wake_scheduled() const { return scheduled_; }
  int64_t wakes() const { return wakes_; }

  // Transcript digest chain, bit-identical to Network's for every thread
  // count (the content accumulator sums per-shard, and sums commute).
  const std::vector<uint64_t>& round_digests() const { return round_digests_; }
  const std::vector<uint64_t>& round_message_accs() const {
    return round_msg_acc_;
  }
  uint64_t last_digest() const { return digest_; }

  // Post-run read-back of external node v's engine-managed state slot, as
  // in Network::StateAt. The plane itself is shared by all shards during a
  // round, but every node writes only its own slot — the same disjointness
  // argument as the halt flags, so no locks and no atomics.
  template <typename T>
  const T& StateAt(int v) const {
    const auto i = static_cast<size_t>(perm_.empty() ? v : perm_[v]);
    return *reinterpret_cast<const T*>(state_.data() + i * state_stride_);
  }
  size_t state_bytes() const { return state_stride_; }

  // Opt-in per-round wall-clock timing, as in Network (covers the full
  // round: fork, node pass, join, reduction, stitch).
  void set_record_round_times(bool on) { record_round_times_ = on; }
  bool record_round_times() const { return record_round_times_; }
  const std::vector<double>& round_seconds() const { return round_seconds_; }

  // White-box epoch access for the wrap-guard regression tests.
  int32_t epoch_for_testing() const { return epoch_; }
  void set_epoch_for_testing(int32_t epoch) { epoch_ = epoch; }

 private:
  // Per-shard round state, cache-line padded: sent is the shard's message
  // counter (NodeContext::sent_ points here), macc its content-digest
  // accumulator (NodeContext::macc_; summed at the barrier — sums commute,
  // so the round accumulator is shard-count independent), kept the size of
  // the shard's compacted worklist range.
  struct alignas(64) Shard {
    int64_t sent = 0;
    uint64_t macc = 0;
    int kept = 0;
    // Wake-scheduling per-round scratch, all touched only by this shard's
    // lane during the round and read serially at the barrier: visit and
    // decision counters (summed into RoundStats — sums commute, so the
    // totals are thread-count independent), the halts this round (reduced
    // into the live count), the ranks that slept past the next round
    // (distributed into the shared calendar at the barrier), and the wake
    // candidates this shard's sends recorded (NodeContext::notified_).
    int64_t visits = 0;
    int64_t decisions = 0;
    int halts = 0;
    std::vector<int> slept;
    std::vector<int> notified;
  };

  GraphView graph_;
  std::vector<int64_t> ids_;
  std::vector<int> first_;      // see Network: rank-indexed CSR offsets
  std::vector<int> send_chan_;  // reverse half-edge channels
  std::vector<int> order_;      // internal rank -> external id
  std::vector<int> perm_;       // external id -> internal rank (empty = id.)
  std::vector<Message> inbox_, outbox_;
  std::vector<char> halted_;
  std::vector<int> active_;     // worklist of internal ranks (see Network);
                                // the current round's wake bucket when
                                // scheduled — entries are UNIQUE here (the
                                // barrier dedups with bucket_stamp_), so
                                // concurrent shards never visit one node
                                // twice or race on its wake round
  // Wake-scheduling state, mirroring Network's. wake_round_ needs no
  // atomics: during a round each rank is written only by the shard visiting
  // it (bucket entries are unique) and all cross-rank reads happen serially
  // at the barrier. bucket_stamp_[i] == r marks rank i already placed in
  // round r's bucket — the parallel engine's replacement for the serial
  // drain's duplicate self-invalidation, applied while ASSEMBLING the
  // bucket instead (duplicates inside a shared bucket would let two shards
  // visit the same node concurrently).
  std::vector<int32_t> wake_round_;
  std::vector<int32_t> bucket_stamp_;
  std::vector<std::vector<int>> calendar_;
  std::vector<int> chan_owner_;
  std::unique_ptr<std::atomic<int32_t>[]> notify_stamp_;
  // Send-hook arming, mirroring Network: recording wake candidates costs
  // two extra random cache lines per observable send, so the hook stays
  // off until some node is parked past the next round (dense scheduled
  // runs never pay). The round that parks the first nodes resolves their
  // wakes by scanning the shards' slept lists at the barrier, then arms.
  // Written only at Run setup and in the serial barrier; shards read it
  // through their per-round context views, synchronized by the pool fork.
  bool notify_armed_ = false;
  int live_count_ = 0;
  int64_t wakes_ = 0;
  bool scheduled_ = false;
  bool wake_opt_ = true;
  std::vector<unsigned char> state_;  // internal-indexed state plane
  size_t state_stride_ = 0;
  std::vector<Shard> shards_;
  std::vector<RoundStats> round_stats_;
  std::vector<double> round_seconds_;
  // Digest chain + pause/resume state machine, as in Network.
  std::vector<uint64_t> round_msg_acc_;
  std::vector<uint64_t> round_digests_;
  uint64_t digest_ = support::kDigestSeed;
  bool digest_messages_ = false;
  support::FaultInjector* fault_ = nullptr;
  bool mid_run_ = false;
  bool finished_ = false;
  std::unique_ptr<SnapshotData> pending_resume_;
  support::ThreadPool pool_;
  bool record_round_times_ = false;
  int32_t epoch_ = 1;
  int round_ = 0;
  int64_t messages_delivered_ = 0;
};

}  // namespace treelocal::local

#endif  // TREELOCAL_LOCAL_PARALLEL_NETWORK_H_
