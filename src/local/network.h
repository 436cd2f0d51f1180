#ifndef TREELOCAL_LOCAL_NETWORK_H_
#define TREELOCAL_LOCAL_NETWORK_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/graph/graph_view.h"
#include "src/support/digest.h"
#include "src/support/thread_pool.h"

namespace treelocal::support {
class FaultInjector;  // src/support/fault.h
}  // namespace treelocal::support

namespace treelocal::local {

struct SnapshotData;  // src/local/snapshot.h

// Fixed-capacity message: the deterministic symmetry-breaking algorithms in
// this repository send at most two 64-bit words per edge per round. Keeping
// the payload inline (no heap) lets the engine run million-node networks.
struct Message {
  int64_t word0 = 0;
  int64_t word1 = 0;
  uint8_t size = 0;  // 0 = no message
  // Engine-internal epoch stamp, not part of the payload: it lives in what
  // would otherwise be struct padding, so a mailbox slot stays at 24 bytes
  // and one Recv/Send touches a single cache line. Algorithms must ignore it.
  int32_t engine_stamp = -1;

  static Message Of(int64_t a) { return Message{a, 0, 1}; }
  static Message Of(int64_t a, int64_t b) { return Message{a, b, 2}; }
  bool present() const { return size > 0; }
};
static_assert(sizeof(Message) == 24, "mailbox slots must stay 24 bytes");

// Per-round engine counters, recorded by every engine and consumed by the
// benchmark drivers: the per-round simulation cost must track the live set
// (not n) once most nodes have halted.
struct RoundStats {
  int active_nodes = 0;       // live (non-halted) nodes at round start
  int64_t messages_sent = 0;  // present messages queued (delivered next round)
  // Engine-observability counters, NOT part of transcript equality below:
  // visits counts OnRound dispatches this round — equal to active_nodes on
  // the always-visit path, only the woken subset under wake scheduling — and
  // decisions counts visits that acted (net-queued at least one present
  // message, or halted). Both are deterministic across engines, relabel, and thread
  // counts for a fixed scheduling mode; the idle-visit ratio
  // (visits - decisions) / visits is what the wake scheduler eliminates.
  int64_t visits = 0;
  int64_t decisions = 0;

  // Transcript equality compares what the LOCAL execution did (live-set
  // size, messages), not how the engine drove it: a scheduled and an
  // unscheduled run of the same algorithm produce EQUAL per-round stats
  // here even though their visit counts differ. The digest chain commits
  // to exactly these two fields (plus message content accumulators).
  friend bool operator==(const RoundStats& a, const RoundStats& b) {
    return a.active_nodes == b.active_nodes &&
           a.messages_sent == b.messages_sent;
  }
};

// Sentinel for NodeContext::SleepUntil / Algorithm::InitialWakeRound: park
// the node with no scheduled wake round at all — it runs again only when a
// message wakes it (or never, if none arrives and the run hits max_rounds).
inline constexpr int32_t kNoWakeRound = INT32_MAX;

// Construction-time engine options for both engines (Network at every
// thread count; ReferenceNetwork accepts relabel and ignores it).
struct NetworkOptions {
  // Opt-in BFS locality relabeling: the engine assigns every node an
  // internal id in BFS order and lays the channel tables and mailboxes out
  // by internal id, so neighbors' mailbox blocks land near each other
  // regardless of how the caller labeled the graph. On unlabeled-locality
  // families (uniform random trees) this localizes the round pass's random
  // sends, the head-round bottleneck. The internal ids never escape the
  // engine: NodeContext::node() and every output stay in the caller's
  // external node numbering, and transcripts are bit-identical to a
  // non-relabeled run (enforced by tests) — only the iteration order within
  // a round and the physical mailbox/state layout change, neither of which
  // is observable in the LOCAL model. Engine-managed algorithm state
  // (Algorithm::StateBytes) is laid out in the same internal order, so the
  // round pass streams state sequentially under relabel too — without that,
  // relabel won its head round but lost rounds 1+ to scattered
  // external-indexed state arrays (measured net ~0.96x; see ROADMAP).
  bool relabel = false;

  // Fold full message contents into the per-round transcript digest chain
  // (see round_digests()). Off by default: the chain then covers the
  // per-round active/message counters only, at O(1) per round and zero
  // hot-path cost. On, every present Send adds one content hash
  // (sender-keyed, order-independent — bit-identical across engines,
  // relabel, and thread counts; bench_snapshot measures the overhead).
  // Checkpoints record the setting and Resume requires it to match.
  bool digest_messages = false;

  // Deterministic fault-injection hook (src/support/fault.h); non-owning,
  // null = no faults. The engine calls AtRoundBoundary before each round
  // and OnVisit before each OnRound dispatch; an armed injector throws a
  // structured FaultInjectedError and the engine stays reusable (the next
  // Run re-initializes all per-run state).
  support::FaultInjector* fault = nullptr;

  // Honor the algorithm's wake-round schedule (Algorithm::WakeScheduled,
  // NodeContext::SleepUntil): the engine keeps the worklist bucketed by wake
  // round and visits a node only in rounds where it declared it acts, waking
  // it early whenever a message arrives. On by default — a run is scheduled
  // iff this is set AND the algorithm opts in — and transcripts (outputs,
  // RoundStats equality, message counts, digest chains) are bit-identical
  // to the always-visit path by construction; only RoundStats::visits
  // shrinks. Set to false to force the legacy always-visit worklist (the
  // scheduler ablation the benches and CI gate on).
  bool wake_scheduling = true;
};

// Thrown by every engine's Run when max_rounds is reached with live nodes.
// The LOCAL algorithms in this repository must converge, so hitting the
// bound is a diagnosis-worthy failure — the error carries the round
// reached, the live-node count, and the last transcript digest instead of
// truncating silently.
class MaxRoundsExceededError : public std::runtime_error {
 public:
  MaxRoundsExceededError(const std::string& engine, int round,
                         int64_t active_nodes, uint64_t last_digest);

  int round() const { return round_; }
  // Nodes still live when the bound was hit.
  int64_t active_nodes() const { return active_; }
  // Digest-chain value after the last executed round.
  uint64_t last_digest() const { return digest_; }

 private:
  int round_;
  int64_t active_;
  uint64_t digest_;
};

class Network;
class ReferenceNetwork;
class Algorithm;

namespace internal {
// Out-of-line hooks for the reference engine's NodeContext paths; defined in
// reference_network.cc so network.h needs only forward declarations.
const Message& RefRecv(const ReferenceNetwork& ref, int node, int port);
void RefSend(ReferenceNetwork& ref, int node, int port, Message m);
void RefHalt(ReferenceNetwork& ref, int node);

// Builds the receiver-indexed CSR channel tables shared by all engines.
// first[] has n+1 entries indexed by INTERNAL RANK: rank i's recv channels
// are [first[i], first[i + 1]), so first[i] + p is the recv channel of
// (node of rank i, p) and first[i + 1] - first[i] is that node's degree.
// send_chan[first[i] + p] is the channel of the reverse half-edge. `perm`
// maps external node -> internal rank (NetworkOptions::relabel), or is null
// for the identity, in which case rank == node. Backend-agnostic (one
// streaming adjacency pass, no edge ids): both graph backends yield
// byte-identical tables.
void BuildChannelTables(GraphView graph, const int* perm,
                        std::vector<int>& first, std::vector<int>& send_chan);

// BFS permutation for NetworkOptions::relabel: perm[v] = BFS visit rank of
// external node v (roots chosen in increasing external index; neighbors
// expanded in port order). Deterministic.
std::vector<int> BfsOrder(GraphView graph);

// Initial worklist order: external node ids sorted by internal rank
// (identity when perm is null). The engines run rounds in this order.
std::vector<int> WorklistOrder(int n, const std::vector<int>& perm);

// Guards the int32 channel arithmetic every engine shares: channel ids
// live in int (first_/send_chan_/chan_owner_), so 2m + epoch headroom
// must fit int32. Separately callable for boundary tests; throws
// GraphLimitError naming the engine and the offending count.
void ValidateChannelScale(int64_t n, int64_t m, const char* engine);

// Arms an engine-managed state plane for a Run: (re)sizes `plane` to
// n * Algorithm::StateBytes() zeroed bytes (reusing capacity across runs)
// and calls InitState once per node. Slot i belongs to external node
// inv[i] (inv null = identity), i.e. the plane is INTERNAL-indexed: under
// relabel, slot order is BFS worklist order. Shared by Network and
// ReferenceNetwork (where inv is always null).
void ArmStatePlane(Algorithm& alg, int n, const int* inv,
                   std::vector<unsigned char>& plane, size_t& stride);

// Inverts the rank-indexed channel offsets for the message-wake path:
// owner[c] is the INTERNAL RANK whose recv-channel block contains channel c
// (i.e. the receiver of any Send that stores to c).
std::vector<int> BuildChanOwner(const std::vector<int>& first);
}  // namespace internal

// Per-node view handed to Algorithm::OnRound. In the LOCAL model (Definition
// 5) nodes know n, Delta, and their own ID; neighbor IDs become known after
// one round of communication — the engine exposes them directly for
// convenience, which is standard (it shifts round counts by at most 1).
//
// One NodeContext serves both engines. The Network branch carries raw
// views of the engine's channel tables, mailboxes, halt flags, and a
// message counter, so Recv/Send/Halt are single array accesses with no
// engine indirection — and the counter view points at the running shard's
// own padded slot, which is what keeps the hot path free of atomics at
// every thread count. The ReferenceNetwork branch is the naive out-of-line
// path used for differential testing. The branch predicts perfectly inside
// a run. Cache-line aligned because a sharded run keeps one context per
// shard side by side: the visit loop rewrites node_/rank_/state_ on every
// node, and those lines must not also hold the next shard's first_ or
// send_chan_, which it reads on every Send (sharing them cost ~1.6x ns
// per message at T = 2).
class alignas(64) NodeContext {
 public:
  int node() const { return node_; }
  // O(1) from the engine's own channel offsets (first_[rank + 1] -
  // first_[rank]); never a call into the graph backend, except on the
  // ReferenceNetwork oracle.
  inline int degree() const;
  int64_t id() const { return ids_[node_]; }
  int64_t neighbor_id(int port) const {
    return ids_[graph_.NeighborAt(node_, port)];
  }
  int n() const { return graph_.NumNodes(); }
  int max_degree() const { return graph_.MaxDegree(); }
  int round() const { return round_; }

  // Message received on `port` this round (sent by the neighbor last round).
  // O(1): one channel-table load plus an epoch check.
  inline const Message& Recv(int port) const;

  // Queue a message on `port` for delivery next round. O(1). Network looks
  // up the reverse half-edge in send_chan_ and stores straight into the
  // receiver's inbox slot (one random store). Sending twice on a port in one
  // round keeps only the last message.
  inline void Send(int port, Message m);
  inline void Broadcast(Message m);

  // Mark this node as terminated; OnRound is no longer called for it and its
  // outgoing channels fall silent (stale epoch stamps, never re-cleared).
  inline void Halt();

  // Declare that this node next acts in round `round` (absolute, i.e. the
  // value a future ctx.round() will show): under wake scheduling the engine
  // skips it until then. The invariant that makes this transcript-invariant:
  // an incoming observable message ALWAYS wakes a sleeping node for the next
  // round, so a node can never miss input it would have seen on the
  // always-visit path — an algorithm may sleep whenever its early-round
  // OnRound would have been a pure no-op (no sends, no halt, no state
  // change) absent new messages. Values <= round() mean "next round" (the
  // default when OnRound returns without calling this); kNoWakeRound parks
  // the node until a message arrives; Halt() wins over any sleep. Without
  // wake scheduling (engine option off, or Algorithm::WakeScheduled false)
  // this is a no-op, which is exactly why transcripts cannot diverge.
  void SleepUntil(int round) { sleep_until_ = round; }

  // Typed reference to this node's engine-managed state slot (see
  // Algorithm::StateBytes). Zero-cost on every engine: the engine aims the
  // pointer at the slot before each OnRound/InitState-adjacent visit, so
  // the accessor is a cast, not a lookup. sizeof(T) must not exceed the
  // declared StateBytes(); calling this with StateBytes() == 0 is invalid.
  template <typename T>
  T& State() const {
    return *static_cast<T*>(state_);
  }

 private:
  friend class Network;
  friend class ReferenceNetwork;
  NodeContext(GraphView graph, const int64_t* ids, ReferenceNetwork* ref)
      : graph_(graph), ids_(ids), ref_(ref) {}

  GraphView graph_;
  const int64_t* ids_;
  ReferenceNetwork* ref_;  // reference engine, or null

  // CSR fast-path views (Network; first_ non-null selects this branch — the
  // offset table is never empty, unlike the mailboxes of an edgeless
  // graph). first_ is indexed by rank_, halted_ by node_. All writes
  // reachable through them are disjoint across concurrently running nodes
  // — each node stores only through its own send channels, halts only
  // itself, and counts into its own shard's sent_ slot — which is the whole
  // data-race argument for the sharded round pass. The engine refreshes
  // inbox_/outbox_/epoch_ every round (the mailboxes swap).
  const int* first_ = nullptr;
  const int* send_chan_ = nullptr;
  const Message* inbox_ = nullptr;
  Message* outbox_ = nullptr;
  char* halted_ = nullptr;
  int64_t* sent_ = nullptr;  // messages-delivered counter (per shard)
  // Message-content digest accumulator (per shard), or null when
  // NetworkOptions::digest_messages is off — the null check is the whole
  // hot-path cost of the feature when disabled.
  uint64_t* macc_ = nullptr;
  int32_t epoch_ = 0;

  // Wake-scheduling hooks. sleep_until_ is the engine<->algorithm mailbox
  // for SleepUntil: the engine pre-sets it to round+1 before each OnRound
  // and reads it back after. The notify trio is the CSR engines' message-
  // wake recorder, non-null only in scheduled runs (one null check is the
  // whole hot-path cost when off): an observable Send marks its receiver's
  // internal rank once per round (epoch-stamped dedup; the stamp is atomic
  // so shards on different lanes dedup with a relaxed exchange, which costs
  // nothing extra at T = 1) into this shard's own notified list. Sleeping
  // receivers are woken at the round barrier.
  int32_t sleep_until_ = 0;
  const int* chan_owner_ = nullptr;  // recv channel -> receiver internal rank
  std::atomic<int32_t>* notify_stamp_ = nullptr;
  std::vector<int>* notified_ = nullptr;

  // This node's slot in the engine's state plane, re-aimed by the engine
  // before every OnRound call (null when StateBytes() == 0). The engine
  // does the internal-rank addressing; the accessor above stays a bare
  // cast.
  void* state_ = nullptr;

  int node_ = 0;
  int rank_ = 0;  // node_'s internal rank (== node_ without relabel); set
                  // with state_, indexes the engine's channel offsets
  int round_ = 0;
};

// A distributed algorithm. OnRound is invoked once per node per round
// (round 0 included, with empty inboxes) until every node halts.
//
// Per-node state lives in an ENGINE-MANAGED state plane: the algorithm
// declares a fixed-size POD slot via StateBytes(), initializes each node's
// slot in InitState(), and reads/writes it through NodeContext::State<T>().
// The engine owns the storage and lays it out ITS way — indexed by internal
// rank, so under NetworkOptions::relabel the state walks in BFS worklist
// order alongside the mailboxes instead of streaming scattered. This is
// what lets one Algorithm implementation hit the engine's best memory
// layout without knowing how the engine is configured. Algorithms with no
// per-node state (or legacy ones keeping their own node-indexed arrays)
// return 0 from StateBytes() and everything behaves as before — but the
// relabel layout can then no longer help their state locality, which
// measurably costs on big inputs.
//
// Determinism contract (what makes every engine in this family produce
// bit-identical transcripts): within a round, OnRound for node v may read
// and write only v's own state slot (plus any v-indexed state the
// implementation still keeps itself), read its inbox, send on its own
// ports, and halt itself. Sends become visible at the round barrier, so the
// order in which nodes run within a round — serial index order, relabeled
// order, or sharded across threads — cannot leak into outputs, RoundStats,
// or message counts. InitState must likewise depend only on (node, captured
// construction inputs), never on the unspecified order of InitState calls.
// Every algorithm in this repository satisfies this by construction, and
// the differential suites enforce it across all engines.
class Algorithm {
 public:
  virtual ~Algorithm() = default;
  virtual void OnRound(NodeContext& ctx) = 0;

  // Size in bytes of the per-node state slot the engine must provide, or 0
  // for none. Must be constant over the algorithm's lifetime, and — because
  // slots are packed at exactly this stride from a new[]-aligned base —
  // a multiple of the state type's alignment (sizeof(T) always qualifies).
  virtual size_t StateBytes() const { return 0; }

  // Called once per external node before round 0 of every Run, with `state`
  // pointing at the node's zero-initialized slot. Call order across nodes
  // is engine-chosen and unspecified (internal-rank order in practice).
  virtual void InitState(int node, void* state) {
    (void)node;
    (void)state;
  }

  // Opt into wake-round scheduling (see NodeContext::SleepUntil). An
  // algorithm returning true promises that every OnRound it would skip by
  // sleeping is a pure no-op absent new messages — the message-wake
  // invariant then makes transcripts bit-identical to the always-visit
  // engines by construction. Must be constant over the algorithm's
  // lifetime. Dense algorithms (every live node acts every round) may
  // return true and never sleep; scheduling is then an exact no-op.
  virtual bool WakeScheduled() const { return false; }

  // First round in which `node` acts (absolute; 0 = round 0, the default
  // and the always-visit behavior; kNoWakeRound = parked until a message
  // arrives). Only consulted when the run is scheduled. Like InitState, it
  // must depend only on (node, captured construction inputs). Negative
  // returns are clamped to 0.
  virtual int InitialWakeRound(int node) const {
    (void)node;
    return 0;
  }
};

// Synchronous message-passing engine over a port-numbered network, per the
// LOCAL model: all nodes run in lockstep; messages sent in round r are
// received in round r+1. Deterministic by construction (the LOCAL
// semantics are order-independent because sends only become visible next
// round).
//
// Engine family (see README.md for how to pick):
//   ReferenceNetwork — naive O(n + m) per round; differential-test oracle.
//   Network(T)       — the solo engine, O(active work) per round (below);
//                      its round pass runs on T thread-pool lanes, with
//                      bit-identical transcripts for every T. Callers with
//                      several instances on one topology (a k-sweep, a
//                      daemon pass) run them one after another on one
//                      reused Network.
//
// Throughput design (the per-round cost is the system-wide bottleneck for
// every pipeline in this repository):
//   * Channel tables in CSR layout, built once at construction, with the
//     offsets indexed by internal rank. Channels are indexed by the
//     RECEIVER's CSR slot: Recv(v, p) is a single sequential load of v's own
//     slot first_[i] + p, i = v's rank (ports scan contiguously, so the
//     prefetcher covers per-node inbox scans), while Send(v, p) goes
//     through the precomputed send_chan_ table to the reverse half-edge's
//     slot. That access is random, and it is a load, not just a store:
//     Send reads the slot's engine_stamp to detect a second write on the
//     channel. On a tree whose neighbors have distant ids (a uniform tree)
//     that is one dependent DRAM load per message once the mailboxes
//     outgrow the cache. The round loops hide it: while visiting worklist
//     entry idx they write-prefetch the send slots of entry idx + 8, within
//     the shard's own range. No IncidentEdges/EndpointSlot recomputation
//     on the hot path. With NetworkOptions::relabel the blocks are laid out
//     in BFS order, which shortens the stride of those random accesses on
//     badly-labeled inputs.
//   * Epoch-stamped mailboxes: each channel carries the epoch at which it was
//     last written. A message is visible iff its stamp equals the previous
//     epoch. This removes the per-round O(2m) outbox clear and the O(2m)
//     delivered-message scan — messages are counted at send time instead.
//   * Active-node worklist: each round iterates only non-halted nodes and
//     compacts in place (stable, preserving the engine's node order). Once a
//     node halts it is never touched again.
//
// Sharding: within a round every node's OnRound is independent, so the
// worklist is split into T contiguous shards, one per pool lane (at T = 1
// the pool runs the single shard inline on the calling thread). The shared
// mutable state is handled without locks or hot-path atomics:
//   * The outbox: every channel has exactly one sender, so concurrent
//     shards store to disjoint slots by construction.
//   * Counters: each shard counts its own nodes' sends, visits and content
//     hashes in a cache-line-padded slot, summed at the round barrier. Sums
//     commute, so every total is independent of the sharding.
//   * Halt/compaction: a node halts only itself, each shard stable-compacts
//     its own worklist range in place, and the barrier stitches the kept
//     prefixes back into one dense worklist in the engine's node order.
//   * Wake scheduling: the current bucket holds each rank at most once (the
//     barrier dedups through the wake rounds themselves), so no two shards
//     visit one node; sleeps land in the visiting shard's own calendar, and
//     the barrier merges the shards' next buckets.
//
// Per-round complexity: O(sum of OnRound costs over active nodes / T) per
// lane + O(#active / T) for the compaction + O(T) barrier work. Nothing is
// proportional to n or m per round; construction is O(n + m); Run performs
// no allocation beyond growing the per-round stats vector.
//
// A Network is reusable: Run may be called any number of times (same graph
// and IDs) with no reallocation — epochs advance monotonically across runs,
// so mailboxes never need clearing.
class Network {
 public:
  // GraphView converts implicitly from either backend, so
  // Network(graph, ids) works unchanged for a Graph and equally for a
  // CompactGraph — with bit-identical transcripts (the view must outlive
  // the engine, as the Graph always had to). `num_threads` is the lane
  // count of the round pass, in [1, support::ThreadPool::kMaxThreads]
  // (std::invalid_argument otherwise, before any thread starts).
  Network(GraphView graph, std::vector<int64_t> ids, int num_threads = 1);
  Network(GraphView graph, std::vector<int64_t> ids,
          const NetworkOptions& options);
  Network(GraphView graph, std::vector<int64_t> ids, int num_threads,
          const NetworkOptions& options);

  // Runs `alg` until every node has halted or `max_rounds` is hit.
  // Returns the number of rounds executed (a node halting in round r has
  // round complexity r+1 counted rounds; an algorithm that halts every node
  // in round 0 used 1 round). Throws if max_rounds is exceeded. An
  // exception thrown by OnRound on any shard is rethrown here after the
  // round joins; the engine remains usable (the next Run re-initializes all
  // per-run state).
  //
  // The 32-bit epoch stamps wrap only after ~2^31 cumulative rounds; Run
  // re-arms the mailboxes at both wrap points (before a run, and — for a
  // single run of ~2^31 rounds — mid-run, preserving the in-flight round's
  // messages), so any max_rounds up to INT32_MAX is safe and the amortized
  // re-arm cost is zero.
  int Run(Algorithm& alg, int max_rounds);

  // Run with a pause point: executes rounds until every node halts,
  // `max_rounds` is hit (MaxRoundsExceededError), or the boundary BEFORE
  // round `pause_at_round` is reached — whichever comes first — and returns
  // rounds executed so far. A paused engine (paused() == true) may be
  // checkpointed and must be continued with the SAME algorithm object
  // (state plane and mailboxes are live); pass a pause round already behind
  // the run (or -1) to continue to completion. Run(alg, r) is
  // RunUntil(alg, r, -1).
  int RunUntil(Algorithm& alg, int max_rounds, int pause_at_round);

  // True after a RunUntil stopped at its pause round with live nodes.
  bool paused() const { return mid_run_; }
  // True once the last run completed (every node halted).
  bool finished() const { return finished_; }
  // Drops a paused run: the next RunUntil starts a fresh run (with any
  // algorithm) instead of continuing this one, as after a run that threw.
  void Abandon() { mid_run_ = false; }

  // Serializes the current round boundary (engine must be paused() or
  // finished()) as a canonical snapshot: resuming it — in this engine, a
  // fresh one, any relabel/thread setting, or the reference engine —
  // continues the run bit-identically. The informational engine tag is
  // kNetwork at T = 1 and kParallelNetwork above. Throws SnapshotError
  // mid-round or before any run.
  void Checkpoint(std::ostream& out) const;

  // Loads a snapshot (fully validated, including against this engine's
  // graph/IDs/options) and arms the engine to continue from it: the next
  // RunUntil call resumes at the recorded round instead of starting fresh.
  // The algorithm passed to that call must declare the recorded state
  // stride. Throws SnapshotError on any mismatch, leaving the engine
  // unchanged.
  void Resume(std::istream& in);

  ~Network();

  int num_threads() const { return pool_.num_threads(); }

  // Backend-specific access: graph() serves the pipelines still tied to
  // the uncompressed CSR (incidence spans, edge slots) and throws
  // std::logic_error when the engine was built over a CompactGraph;
  // view() is the backend-agnostic handle.
  const Graph& graph() const { return graph_.RequireCsr("Network::graph()"); }
  GraphView view() const { return graph_; }
  const std::vector<int64_t>& ids() const { return ids_; }

  // Transcript digest chain for the run so far: round_digests()[r] =
  // ChainDigest(digest[r-1], active, sent, msg_acc) after round r, seeded
  // with support::kDigestSeed. Bit-identical across every engine, relabel
  // setting, and thread count; with NetworkOptions::digest_messages it also
  // commits to full message contents (round_message_accs()).
  const std::vector<uint64_t>& round_digests() const { return round_digests_; }
  const std::vector<uint64_t>& round_message_accs() const {
    return round_msg_acc_;
  }
  uint64_t last_digest() const { return digest_; }

  // Total present messages delivered over the last Run (a message sent in
  // the final round is counted: it is delivered even if nobody reads it).
  int64_t messages_delivered() const { return messages_delivered_; }

  // Per-round counters for the last Run; round_stats()[r] covers round r.
  const std::vector<RoundStats>& round_stats() const { return round_stats_; }

  // True iff the last (or in-progress) Run honored the algorithm's wake
  // schedule (options.wake_scheduling AND Algorithm::WakeScheduled).
  bool wake_scheduled() const { return scheduled_; }
  // Message-triggered wakes over the last Run (a sleeping node pulled to
  // the next round's bucket by an observable incoming message). 0 on
  // unscheduled runs. With total visits/decisions from round_stats(), this
  // closes the scheduler's accounting: every visit is an initial wake, a
  // calendar wake, or one of these.
  int64_t wakes() const { return wakes_; }

  // Opt-in wall-clock timing of each round (two clock reads per round; off
  // by default so the hot loop stays branch-only), covering the full round:
  // fork, node pass, join, and barrier. Consumed by the engine benches to
  // show per-round cost tracks active_nodes, not n.
  void set_record_round_times(bool on) { record_round_times_ = on; }
  bool record_round_times() const { return record_round_times_; }
  const std::vector<double>& round_seconds() const { return round_seconds_; }

  // Post-run read-back of external node v's state slot (the engine does the
  // external->internal translation here, off the hot path). T must be the
  // algorithm's declared state type; valid until the next Run. During a
  // round the plane is shared by all shards, but every node writes only its
  // own slot, so it needs no locks and no atomics.
  template <typename T>
  const T& StateAt(int v) const {
    const auto i = static_cast<size_t>(perm_.empty() ? v : perm_[v]);
    return *reinterpret_cast<const T*>(state_.data() + i * state_stride_);
  }
  size_t state_bytes() const { return state_stride_; }

  // White-box access to the epoch counter for the wrap-guard regression
  // tests; production code never touches these.
  int32_t epoch_for_testing() const { return epoch_; }
  void set_epoch_for_testing(int32_t epoch) { epoch_ = epoch; }

 private:
  friend class NodeContext;

  // Per-shard round state, cache-line padded. sent is the shard's message
  // counter (NodeContext::sent_ points here) and macc its content-digest
  // accumulator (NodeContext::macc_); kept is the size of the shard's
  // compacted worklist range, decisions its visits that acted. The rest is
  // wake-scheduling state, touched only by this shard's lane during a round
  // and read at the barrier: the halt count, the wake candidates this
  // shard's sends recorded (NodeContext::notified_), the ranks parked while
  // the send hook was still disarmed, and the shard's own calendar of
  // future wake buckets (see wake_round_ below).
  struct alignas(64) Shard {
    int64_t sent = 0;
    uint64_t macc = 0;
    int kept = 0;
    int halts = 0;
    int64_t decisions = 0;
    std::vector<int> notified;
    std::vector<int> parked_now;
    std::vector<std::vector<int>> calendar;
  };

  GraphView graph_;
  std::vector<int64_t> ids_;
  std::vector<int> first_;      // size n+1, by internal rank: recv channel
                                // of (rank i, p) is first_[i] + p, and the
                                // block ends at first_[i + 1]
  std::vector<int> send_chan_;  // size 2m: send channel of (v, p), i.e. the
                                // channel of the reverse half-edge
  std::vector<int> order_;      // internal rank -> external id (iota, or BFS
                                // under options.relabel)
  std::vector<int> perm_;       // external id -> internal rank; empty =
                                // identity (no relabel)
  // Double-buffered mailboxes, each slot epoch-stamped in the Message's
  // engine_stamp field; swapped (O(1)) each round, never cleared.
  std::vector<Message> inbox_, outbox_;
  std::vector<char> halted_;
  std::vector<int> active_;  // worklist of non-halted INTERNAL ranks, engine
                             // order; rank i's state slot and external id
                             // (order_[i]) ride along in rank order, so the
                             // state plane streams sequentially even under
                             // relabel — the whole point of internal indexing.
                             // Under wake scheduling it holds only the
                             // CURRENT ROUND's wake bucket instead, each
                             // rank at most once.
  // Wake-scheduling state (armed lazily on the first scheduled run; the
  // always-visit path never touches any of it). wake_round_[i] is rank i's
  // next scheduled round (kNoWakeRound = parked), or ~r (negative) once
  // the barrier has placed it in round r's bucket — which is how the
  // barrier places each rank at most once (two shards must not visit one
  // node) with no extra per-node array. It needs no atomics, because during
  // a round each rank is written only by the shard visiting it and all
  // cross-rank reads happen at the barrier. Each shard's calendar[r] holds
  // ranks it put to sleep until future round r; entries go stale when a
  // message wake or a later sleep moves the node's wake round, and the
  // barrier places an entry only while wake_round_ still equals r.
  // notify_stamp_/chan_owner_ implement the Send-side message-wake
  // recording described at NodeContext.
  std::vector<int32_t> wake_round_;
  std::vector<int> chan_owner_;
  std::unique_ptr<std::atomic<int32_t>[]> notify_stamp_;
  // The Send-side recording costs two extra random cache lines per
  // observable send (chan_owner_ + notify_stamp_), which dense scheduled
  // algorithms — every live node acting every round, nobody ever parked —
  // would pay for nothing. The hook is therefore armed only once some node
  // is actually parked past the next round; the round that parks the
  // first nodes with the hook still off resolves their wakes by scanning
  // just those nodes' inboxes at the barrier (Shard::parked_now), then
  // arms. Once armed it stays armed for the rest of the run: exactness
  // matters only for the never-parks case, which this makes entirely free.
  // Written only at Run setup and at the barrier.
  bool notify_armed_ = false;
  int live_count_ = 0;      // non-halted nodes (scheduled runs' termination)
  int64_t wakes_ = 0;       // message wakes, last Run
  bool scheduled_ = false;  // last Run honored the wake schedule
  bool wake_opt_ = true;    // NetworkOptions::wake_scheduling
  // Engine-owned per-node state plane (Algorithm::StateBytes per slot),
  // indexed by internal rank; re-armed (zero + InitState) every Run,
  // reallocated only when the slot size changes.
  std::vector<unsigned char> state_;
  size_t state_stride_ = 0;
  std::vector<Shard> shards_;
  std::vector<RoundStats> round_stats_;
  std::vector<double> round_seconds_;
  bool record_round_times_ = false;
  // Transcript digest chain (see round_digests()): per-round content
  // accumulators, per-round chained digests, and the running value.
  std::vector<uint64_t> round_msg_acc_;
  std::vector<uint64_t> round_digests_;
  uint64_t digest_ = support::kDigestSeed;
  bool digest_messages_ = false;
  support::FaultInjector* fault_ = nullptr;
  // Pause/resume state machine: mid_run_ marks a run paused at a round
  // boundary (mailboxes/state live, same-algorithm continuation only);
  // finished_ marks a completed run; pending_resume_ holds a validated
  // snapshot the next RunUntil applies instead of a fresh start.
  bool mid_run_ = false;
  bool finished_ = false;
  std::unique_ptr<SnapshotData> pending_resume_;
  support::ThreadPool pool_;  // num_threads lanes, persistent
  int32_t epoch_ = 1;  // monotone across runs (wrap-guarded in Run);
                       // stamps start at -1
  int round_ = 0;
  int64_t messages_delivered_ = 0;

  static const Message kNoMessage;
};

inline int NodeContext::degree() const {
  if (first_ != nullptr) [[likely]] return first_[rank_ + 1] - first_[rank_];
  return graph_.Degree(node_);
}

inline const Message& NodeContext::Recv(int port) const {
  if (first_ != nullptr) [[likely]] {
    const auto c = static_cast<size_t>(first_[rank_] + port);
    const Message& s = inbox_[c];
    return s.engine_stamp + 1 == epoch_ ? s : Network::kNoMessage;
  }
  return internal::RefRecv(*ref_, node_, port);
}

inline void NodeContext::Send(int port, Message m) {
  if (first_ != nullptr) [[likely]] {
    const auto c = static_cast<size_t>(send_chan_[first_[rank_] + port]);
    Message& s = outbox_[c];
    if (s.engine_stamp == epoch_) {
      // Second write on this channel this round: last write wins, undo the
      // earlier message's contribution to the counter (and, under content
      // digests, to the accumulator — the slot's previous writer was this
      // same (node, port), so its hash is recomputable in place).
      *sent_ -= s.present();
      if (macc_ != nullptr && s.present()) {
        *macc_ -= support::MessageHash(node_, port, s.word0, s.word1, s.size);
      }
    }
    const int32_t stamp = epoch_;
    s = m;
    s.engine_stamp = stamp;
    *sent_ += m.present();
    if (macc_ != nullptr && m.present()) {
      *macc_ += support::MessageHash(node_, port, m.word0, m.word1, m.size);
    }
    if (notify_stamp_ != nullptr &&
        (m.size != 0 || m.word0 != 0 || m.word1 != 0)) {
      // Scheduled run: record the receiver as a wake candidate, once per
      // round (epoch-stamped dedup; the relaxed exchange makes concurrent
      // shards agree on a single recorder). The observability predicate
      // matches Recv's view and the snapshot layer's deliverable set — a
      // message a sleeping receiver could not distinguish from silence must
      // not wake it, or visit counts would diverge across engines. Whether
      // the candidate is actually asleep (and whether an observable message
      // still sits in its inbox after later overwrites) is resolved at the
      // round barrier.
      const int r = chan_owner_[c];
      if (notify_stamp_[r].load(std::memory_order_relaxed) != stamp &&
          notify_stamp_[r].exchange(stamp, std::memory_order_relaxed) !=
              stamp) {
        notified_->push_back(r);
      }
    }
    return;
  }
  internal::RefSend(*ref_, node_, port, m);
}

inline void NodeContext::Broadcast(Message m) {
  const int deg = degree();
  for (int p = 0; p < deg; ++p) Send(p, m);
}

inline void NodeContext::Halt() {
  if (first_ != nullptr) [[likely]] {
    halted_[node_] = 1;  // worklist compaction happens after OnRound
    return;
  }
  internal::RefHalt(*ref_, node_);
}

}  // namespace treelocal::local

#endif  // TREELOCAL_LOCAL_NETWORK_H_
