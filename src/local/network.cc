#include "src/local/network.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <functional>
#include <numeric>
#include <stdexcept>

#include "src/local/snapshot.h"
#include "src/support/fault.h"

namespace treelocal::local {

const Message Network::kNoMessage{};

namespace {

// Wake-round value of a rank the barrier has placed in round r's bucket
// (see Network::wake_round_). Negative, so it never equals a scheduled
// round and every "sleeps past round r" test (w > r) stays false for it.
constexpr int32_t InBucket(int round) { return ~round; }

// Worklist look-ahead of the round loops' send prefetch: while visiting
// entry idx, the loops write-prefetch the outbox slots that entry
// idx + kSendLookahead will send on. On a badly-labeled tree each send
// lands on a random mailbox line, and Send loads that line's stamp before
// it writes, so without the prefetch every message out of cache pays one
// dependent DRAM load. 8, 16 and 32 time alike on the 2^20-node engine
// micro run; the smallest leaves the fewest visits of a shard unprefetched.
constexpr int kSendLookahead = 8;

// Write-prefetches the outbox slot of every send channel of rank i.
inline void PrefetchSends(const int* first, const int* send_chan,
                          const Message* outbox, int i) {
  for (int c = first[i]; c < first[i + 1]; ++c) {
    __builtin_prefetch(outbox + send_chan[c], 1);
  }
}

}  // namespace

MaxRoundsExceededError::MaxRoundsExceededError(const std::string& engine,
                                               int round, int64_t active_nodes,
                                               uint64_t last_digest)
    : std::runtime_error(engine + " exceeded max_rounds: round " +
                         std::to_string(round) + " reached with " +
                         std::to_string(active_nodes) +
                         " live node(s), last transcript digest " +
                         std::to_string(last_digest)),
      round_(round),
      active_(active_nodes),
      digest_(last_digest) {}

namespace internal {

// send_chan[first[rank(v)] + p] = channel of the reverse half-edge (u -> v)
// where u = Neighbors(v)[p] — i.e. the receiver-side inbox slot a send on
// (v, p) must land in. Built in O(n + m) by one streaming adjacency pass
// with NO edge ids (so it works identically over either graph backend):
// scanning v ascending, u's lower neighbors arrive in ascending order and
// — adjacency being sorted — occupy u's first ports in exactly that order,
// so a per-node cursor names the reverse port of every (v, p) with u > v.
// With `perm` the per-node channel blocks are laid out in internal-rank
// order; the pairing is unchanged because it keys on (node, port).
void BuildChannelTables(GraphView graph, const int* perm,
                        std::vector<int>& first, std::vector<int>& send_chan) {
  const int n = graph.NumNodes();
  const auto rank = [perm](int v) { return perm == nullptr ? v : perm[v]; };
  // Degrees land at their rank's slot, then an in-place prefix sum turns
  // them into rank-indexed offsets.
  first.assign(n + 1, 0);
  for (int v = 0; v < n; ++v) first[rank(v) + 1] = graph.Degree(v);
  for (int i = 0; i < n; ++i) first[i + 1] += first[i];

  send_chan.resize(2 * static_cast<size_t>(graph.NumEdges()));
  std::vector<int> cnt(n, 0);  // lower neighbors of u paired so far
  for (int v = 0; v < n; ++v) {
    int p = 0;
    const int base = first[rank(v)];
    graph.ForEachNeighbor(v, [&](int u) {
      if (u > v) {
        const int a = base + p;
        const int b = first[rank(u)] + cnt[u]++;
        send_chan[a] = b;
        send_chan[b] = a;
      }
      ++p;
    });
  }
}

std::vector<int> BfsOrder(GraphView graph) {
  const int n = graph.NumNodes();
  std::vector<int> perm(n, -1);
  std::vector<int> queue;
  queue.reserve(n);
  int rank = 0;
  for (int root = 0; root < n; ++root) {
    if (perm[root] >= 0) continue;
    perm[root] = rank++;
    queue.push_back(root);
    for (size_t head = queue.size() - 1; head < queue.size(); ++head) {
      const int v = queue[head];
      graph.ForEachNeighbor(v, [&](int u) {
        if (perm[u] < 0) {
          perm[u] = rank++;
          queue.push_back(u);
        }
      });
    }
  }
  return perm;
}

void ValidateChannelScale(int64_t n, int64_t m, const char* engine) {
  // Channel ids (first_/send_chan_/chan_owner_ and every mailbox index)
  // are int32; 2m channels plus sentinel headroom must fit.
  constexpr int64_t kMaxChannels = static_cast<int64_t>(INT32_MAX) - 4;
  if (2 * m > kMaxChannels) {
    throw GraphLimitError(
        std::string(engine) + ": graph with m = " + std::to_string(m) +
        " edges (n = " + std::to_string(n) + ") needs " +
        std::to_string(2 * m) +
        " channels, exceeding the engine's int32 channel-index limit of " +
        std::to_string(kMaxChannels));
  }
}

std::vector<int> WorklistOrder(int n, const std::vector<int>& perm) {
  std::vector<int> order(n);
  if (perm.empty()) {
    std::iota(order.begin(), order.end(), 0);
  } else {
    for (int v = 0; v < n; ++v) order[perm[v]] = v;
  }
  return order;
}

std::vector<int> BuildChanOwner(const std::vector<int>& first) {
  const int n = static_cast<int>(first.size()) - 1;
  std::vector<int> owner(static_cast<size_t>(first[n]));
  for (int i = 0; i < n; ++i) {
    std::fill(owner.begin() + first[i], owner.begin() + first[i + 1], i);
  }
  return owner;
}

void ArmStatePlane(Algorithm& alg, int n, const int* inv,
                   std::vector<unsigned char>& plane, size_t& stride) {
  stride = alg.StateBytes();
  // assign() reuses capacity, so repeated Runs of same-sized algorithms
  // re-arm with no reallocation (the Network reuse contract).
  plane.assign(stride * static_cast<size_t>(n), 0);
  if (stride == 0) return;
  unsigned char* base = plane.data();
  for (int i = 0; i < n; ++i) {
    alg.InitState(inv == nullptr ? i : inv[i],
                  base + static_cast<size_t>(i) * stride);
  }
}

}  // namespace internal

Network::~Network() = default;  // out of line: pending_resume_'s type

Network::Network(GraphView graph, std::vector<int64_t> ids, int num_threads)
    : Network(graph, std::move(ids), num_threads, NetworkOptions{}) {}

Network::Network(GraphView graph, std::vector<int64_t> ids,
                 const NetworkOptions& options)
    : Network(graph, std::move(ids), 1, options) {}

Network::Network(GraphView graph, std::vector<int64_t> ids, int num_threads,
                 const NetworkOptions& options)
    : graph_(graph),
      ids_(std::move(ids)),
      wake_opt_(options.wake_scheduling),
      digest_messages_(options.digest_messages),
      fault_(options.fault),
      pool_(num_threads) {
  assert(static_cast<int>(ids_.size()) == graph.NumNodes());
  internal::ValidateChannelScale(graph.NumNodes(), graph.NumEdges(),
                                 "Network");
  const int n = graph.NumNodes();
  const size_t channels = 2 * static_cast<size_t>(graph.NumEdges());

  std::vector<int> perm;
  if (options.relabel) perm = internal::BfsOrder(graph);
  internal::BuildChannelTables(graph, perm.empty() ? nullptr : perm.data(),
                               first_, send_chan_);
  order_ = internal::WorklistOrder(n, perm);
  perm_ = std::move(perm);

  inbox_.assign(channels, Message{});
  outbox_.assign(channels, Message{});
  halted_.assign(n, 0);
  active_.reserve(n);
  shards_.resize(pool_.num_threads());
}

int Network::Run(Algorithm& alg, int max_rounds) {
  return RunUntil(alg, max_rounds, -1);
}

int Network::RunUntil(Algorithm& alg, int max_rounds, int pause_at_round) {
  const int T = pool_.num_threads();
  const int n = graph_.NumNodes();
  // A run is scheduled iff the engine option is on AND the algorithm opts
  // in. Continuing a paused run recomputes the same value (same Algorithm
  // object, WakeScheduled constant by contract).
  const bool scheduled = wake_opt_ && alg.WakeScheduled();
  if (scheduled && wake_round_.empty() && n > 0) {
    // First scheduled run on this engine: arm the wake tables once.
    wake_round_.assign(n, 0);
    chan_owner_ = internal::BuildChanOwner(first_);
    notify_stamp_.reset(new std::atomic<int32_t>[n]);
    for (int i = 0; i < n; ++i) {
      notify_stamp_[i].store(-1, std::memory_order_relaxed);
    }
  }
  // Calendar insertion into a shard's calendar: wake rounds at or past
  // max_rounds get no bucket (the run throws at max_rounds before they
  // could matter, and a later continuation with a larger bound rebuilds the
  // calendar from wake_round_ below) — this bounds calendar memory by the
  // caller's own round budget. Duplicate and stale entries are harmless:
  // the barrier places an entry only while its wake_round_ still names
  // that round, and then marks it placed.
  const auto push_calendar = [max_rounds](Shard& sh, int w, int i) {
    if (w >= max_rounds) return;
    if (w >= static_cast<int>(sh.calendar.size())) sh.calendar.resize(w + 1);
    sh.calendar[w].push_back(i);
  };
  // Run setup pushes into shard 0's calendar; which shard holds an entry
  // is invisible, since the barrier merges every shard's next bucket.
  const auto reset_calendars = [&] {
    for (Shard& sh : shards_) sh.calendar.clear();
  };
  // Advancing by 2 leaves every stamp from the previous run strictly below
  // epoch_ - 1, so round 0 of this run cannot observe stale messages. The
  // 32-bit stamp wraps only after ~2^31 cumulative rounds; when the epoch
  // nears the wrap, re-arm every stamp once — amortized cost zero (the
  // mid-run case is handled by the per-round rebase below). The message-
  // wake dedup stamps are epoch-keyed like the mailboxes and must not
  // survive an epoch reset (a stale stamp equal to a future epoch would
  // swallow a wake).
  const auto advance_epoch = [&] {
    if (epoch_ >= INT32_MAX - 4) {
      for (auto& m : inbox_) m.engine_stamp = -1;
      for (auto& m : outbox_) m.engine_stamp = -1;
      for (int i = 0; i < n && notify_stamp_ != nullptr; ++i) {
        notify_stamp_[i].store(-1, std::memory_order_relaxed);
      }
      epoch_ = 1;
    }
    epoch_ += 2;
  };
  if (pending_resume_ != nullptr) {
    // Resume path: restore the checkpointed boundary instead of starting
    // fresh. The epoch must advance (with the pre-run wrap guard) BEFORE
    // the snapshot applies — the deliverable messages are stamped
    // epoch_ - 1, i.e. relative to the epoch the resumed round runs under.
    const std::unique_ptr<SnapshotData> snap = std::move(pending_resume_);
    advance_epoch();
    round_seconds_.clear();
    internal::ApplySoloSnapshot(*snap, graph_, alg.StateBytes(), order_,
                                perm_, first_, inbox_, halted_, active_,
                                state_, state_stride_, round_stats_,
                                round_msg_acc_, round_digests_, digest_,
                                round_, messages_delivered_, epoch_);
    wakes_ = 0;
    if (scheduled) {
      // Rebuild the wake bucket and calendar from the snapshot's per-node
      // wake rounds (external-indexed; a snapshot of an unscheduled run
      // records every live node awake at the boundary, so resuming it
      // scheduled just re-engages the algorithm's sleeps going forward).
      // The always-visit worklist ApplySoloSnapshot built is replaced by
      // the boundary's wake bucket.
      const std::vector<int32_t>& wake = snap->instances[0].wake;
      reset_calendars();
      active_.clear();
      live_count_ = 0;
      notify_armed_ = false;
      for (int i = 0; i < n; ++i) {
        const int v = order_[i];
        if (halted_[v]) continue;
        ++live_count_;
        int32_t w = wake.empty() ? round_ : wake[v];
        if (w < round_) w = round_;  // validated; belt and braces
        if (w > round_ + 1) notify_armed_ = true;  // someone already parked
        if (w == round_) {
          wake_round_[i] = InBucket(round_);
          active_.push_back(i);
        } else {
          wake_round_[i] = w;
          if (w != kNoWakeRound) push_calendar(shards_[0], w, i);
        }
      }
    }
  } else if (!mid_run_) {
    // Fresh run: reset all per-run state.
    round_ = 0;
    messages_delivered_ = 0;
    round_stats_.clear();
    round_seconds_.clear();
    round_msg_acc_.clear();
    round_digests_.clear();
    digest_ = support::kDigestSeed;
    advance_epoch();
    std::fill(halted_.begin(), halted_.end(), 0);
    wakes_ = 0;
    if (scheduled) {
      // Seed the calendar from the algorithm's declared first-action
      // rounds; round 0's bucket replaces the full iota worklist. Rounds
      // still tick (and record stats and digests) while buckets are empty,
      // so the transcript is bit-identical to the always-visit run.
      reset_calendars();
      active_.clear();
      live_count_ = n;
      notify_armed_ = false;
      for (int i = 0; i < n; ++i) {
        int w = alg.InitialWakeRound(order_[i]);
        if (w <= 0) {
          wake_round_[i] = InBucket(0);
          active_.push_back(i);
        } else {
          wake_round_[i] = w >= kNoWakeRound ? kNoWakeRound : w;
          if (wake_round_[i] > 1) notify_armed_ = true;  // parked past round 1
          push_calendar(shards_[0], wake_round_[i], i);
        }
      }
    } else {
      // The worklist holds INTERNAL ranks; external ids come from order_ at
      // visit time, so the state plane below is walked in rank (= worklist)
      // order every round, relabeled or not.
      active_.resize(n);
      std::iota(active_.begin(), active_.end(), 0);
    }
    // One InitState pass on the calling thread (per-node init is
    // order-independent by contract).
    internal::ArmStatePlane(alg, n, order_.data(), state_, state_stride_);
  } else if (scheduled) {
    // Continuing a paused scheduled run: the current bucket (active_) and
    // wake rounds are live, but the calendar was bounded by the PREVIOUS
    // call's max_rounds — rebuild it from wake_round_ under the new bound.
    reset_calendars();
    notify_armed_ = false;
    for (int i = 0; i < n; ++i) {
      const int32_t w = wake_round_[i];
      if (halted_[order_[i]]) continue;
      if (w > round_ + 1) notify_armed_ = true;  // parked (incl. forever)
      if (w > round_ && w != kNoWakeRound) push_calendar(shards_[0], w, i);
    }
  }
  // else: continuing a paused run — mailboxes, worklist, state plane, and
  // the digest chain are all live exactly as the pause left them.
  // Wake candidates left behind by a run aborted mid-round (an OnRound or
  // fault exception) must not leak into this one.
  for (Shard& sh : shards_) {
    sh.notified.clear();
    sh.parked_now.clear();
  }
  mid_run_ = false;  // any exit other than the pause return is not a pause
  finished_ = false;
  scheduled_ = scheduled;
  unsigned char* const state_base = state_.data();
  const size_t stride = state_stride_;
  support::FaultInjector* const fault = fault_;

  // One context per shard: identical CSR views except for the per-shard
  // counter slots and wake-candidate list. Rebuilt per Run (T small).
  std::vector<NodeContext> ctxs;
  ctxs.reserve(T);
  for (int t = 0; t < T; ++t) {
    ctxs.push_back(NodeContext(graph_, ids_.data(), nullptr));
    NodeContext& ctx = ctxs.back();
    ctx.first_ = first_.data();
    ctx.send_chan_ = send_chan_.data();
    ctx.halted_ = halted_.data();
    ctx.sent_ = &shards_[t].sent;
    ctx.macc_ = digest_messages_ ? &shards_[t].macc : nullptr;
    if (scheduled) {
      // Shared dedup stamps (atomic exchange), per-shard candidate lists.
      // notify_stamp_ is aimed per round below: null while the hook is
      // disarmed (nobody parked), live once any node parks.
      ctx.chan_owner_ = chan_owner_.data();
      ctx.notified_ = &shards_[t].notified;
    }
  }

  // Shard boundaries: contiguous worklist ranges, balanced to +-1. The
  // partition depends only on (active_now, T) — but even that choice is
  // transcript-invisible, since shards only reorder OnRound within the
  // round and all cross-shard writes are disjoint (see the class comment).
  int active_now = 0;
  const auto shard_lo = [&](int t) {
    return static_cast<int>(static_cast<int64_t>(active_now) * t / T);
  };
  // Per-round shard reset and context refresh: the mailboxes swap and the
  // epoch moves every round.
  const auto begin_round = [&] {
    active_now = static_cast<int>(active_.size());
    for (int t = 0; t < T; ++t) {
      NodeContext& ctx = ctxs[t];
      ctx.round_ = round_;
      ctx.inbox_ = inbox_.data();
      ctx.outbox_ = outbox_.data();
      ctx.epoch_ = epoch_;
      ctx.notify_stamp_ =
          scheduled && notify_armed_ ? notify_stamp_.get() : nullptr;
      Shard& sh = shards_[t];
      sh.sent = 0;
      sh.macc = 0;
    }
  };
  // Stitches the shards' compacted prefixes into one dense worklist,
  // preserving node order, and records the round's transcript entry.
  // Reductions are sums, so every total matches a single-shard run's. Every
  // worklist entry is visited, so the round's visits are active_now on
  // both loops (the whole live set, or just the wake bucket).
  const auto end_round = [&](int live_now) {
    int64_t round_sent = 0;
    uint64_t round_macc = 0;
    int64_t decisions = 0;
    for (const Shard& sh : shards_) {
      round_sent += sh.sent;
      round_macc += sh.macc;
      decisions += sh.decisions;
    }
    messages_delivered_ += round_sent;
    round_stats_.push_back({live_now, round_sent, active_now, decisions});
    round_msg_acc_.push_back(round_macc);
    digest_ = support::ChainDigest(digest_, live_now, round_sent, round_macc);
    round_digests_.push_back(digest_);
    int dst = shards_[0].kept;
    for (int t = 1; t < T; ++t) {
      const int lo = shard_lo(t);
      const int kept = shards_[t].kept;
      // dst <= lo always, so this forward copy never overruns its source;
      // a manual loop because std::copy forbids dst == lo (self-copy).
      for (int j = 0; j < kept; ++j) active_[dst + j] = active_[lo + j];
      dst += kept;
    }
    active_.resize(dst);
  };
  // Round preamble shared by both loops: fault hook, round budget, and the
  // mid-run epoch rebase (a single run of ~2^31 rounds keeps exactly this
  // round's deliverable messages visible and invalidates everything else —
  // one O(2m) pass per ~2^31 rounds, amortized cost zero).
  const auto check_round = [&](int64_t live) {
    if (fault != nullptr) fault->AtRoundBoundary(round_);
    if (round_ >= max_rounds) {
      throw MaxRoundsExceededError("Network::Run", round_, live, digest_);
    }
    if (epoch_ >= INT32_MAX - 2) {
      for (auto& m : outbox_) m.engine_stamp = -1;
      for (auto& m : inbox_) {
        m.engine_stamp = m.engine_stamp == epoch_ - 1 ? 2 : -1;
      }
      for (int i = 0; i < n && notify_stamp_ != nullptr; ++i) {
        notify_stamp_[i].store(-1, std::memory_order_relaxed);
      }
      epoch_ = 3;
    }
  };
  std::chrono::steady_clock::time_point t0;
  const auto start_clock = [&] {
    if (record_round_times_) t0 = std::chrono::steady_clock::now();
  };
  const auto stop_clock = [&] {
    if (record_round_times_) {
      round_seconds_.push_back(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count());
    }
  };

  if (scheduled) {
    // Wake-scheduled round loop. Transcript identity with the always-visit
    // loop below is by construction: active_nodes records the LIVE count
    // (not visits), rounds tick even when the current bucket is empty, and
    // any node that would have observed new input on the always-visit path
    // is woken for the delivery round at the barrier. Only visits shrink.
    //
    // Shard body: drain this shard's slice of the bucket. The barrier put
    // only live ranks placed for this round there, each once, so this
    // shard is the only writer of its entries' wake rounds.
    const std::function<void(int)> round_task = [&](int t) {
      // Everything the loop reads is copied into locals first: they stay in
      // registers across the opaque OnRound call, where members and
      // by-reference captures would be reloaded after every visit.
      const int lo = shard_lo(t);
      const int hi = shard_lo(t + 1);
      NodeContext& ctx = ctxs[t];
      Shard& sh = shards_[t];
      int* const work = active_.data();
      const int* const order = order_.data();
      const int* const first = first_.data();
      const int* const send_chan = send_chan_.data();
      const Message* const outbox = outbox_.data();
      const char* const halted = halted_.data();
      int32_t* const wake = wake_round_.data();
      unsigned char* const base = state_base;
      const size_t slot = stride;
      support::FaultInjector* const faults = fault;
      const int round = round_;
      const int next = round + 1;
      const bool armed = notify_armed_;
      int64_t decisions = 0;
      int halts = 0;
      int kept = lo;
      for (int idx = lo; idx < hi; ++idx) {
        // Entries past idx are still this shard's own and not yet
        // rewritten by its compaction, so reading ahead is race-free.
        if (idx + kSendLookahead < hi) {
          PrefetchSends(first, send_chan, outbox, work[idx + kSendLookahead]);
        }
        const int i = work[idx];
        const int v = order[i];
        assert(!halted[v] && wake[i] == InBucket(round));
        ctx.node_ = v;
        ctx.rank_ = i;
        ctx.state_ = base + static_cast<size_t>(i) * slot;
        ctx.sleep_until_ = next;  // default: act again next round
        if (faults != nullptr) faults->OnVisit(round);
        const int64_t sb = sh.sent;
        alg.OnRound(ctx);
        if (halted[v]) {
          ++halts;
          ++decisions;  // halting is a decision; Halt wins over any sleep
          continue;
        }
        decisions += sh.sent != sb ? 1 : 0;
        const int32_t w = ctx.sleep_until_ <= round ? next : ctx.sleep_until_;
        if (w == next) {
          wake[i] = InBucket(next);  // survivor: stays in next round's bucket
          work[kept++] = i;
        } else {
          wake[i] = w;
          push_calendar(sh, w, i);
          // Hook was off this round, so sends targeting this node were not
          // recorded; the barrier scans its inbox directly, then arms.
          if (!armed) sh.parked_now.push_back(i);
        }
      }
      sh.kept = kept - lo;
      sh.decisions = decisions;
      sh.halts = halts;
    };
    // Wake a sleeping candidate iff an observable message actually sits in
    // its (post-swap) inbox — shared by the armed-hook candidate loop and
    // the disarmed transition scan, so both resolve wakes through one
    // predicate. A rank already placed in the next bucket has a negative
    // wake round and is left alone.
    const auto wake_if_observable = [&](int i) {
      const int next = round_ + 1;
      if (halted_[order_[i]] || wake_round_[i] <= next) return;
      const int lo = first_[i];
      const int hi = first_[i + 1];
      bool observable = false;
      for (int c = lo; c < hi && !observable; ++c) {
        const Message& msg = inbox_[c];
        observable = msg.engine_stamp == epoch_ &&
                     (msg.size != 0 || msg.word0 != 0 || msg.word1 != 0);
      }
      if (observable) {
        wake_round_[i] = InBucket(next);
        ++wakes_;
        active_.push_back(i);
      }
    };
    while (live_count_ > 0) {
      if (round_ == pause_at_round) {
        mid_run_ = true;
        return round_;
      }
      check_round(live_count_);
      start_clock();
      const int live_now = live_count_;
      begin_round();
      pool_.ParallelFor(T, round_task);
      // Round barrier (the pool join is the visibility fence). The digest
      // input is the LIVE count, which is what keeps scheduled and
      // unscheduled transcripts bit-identical.
      for (const Shard& sh : shards_) live_count_ -= sh.halts;
      end_round(live_now);
      // Next round's bucket = survivors (already placed) + every shard's
      // calendar entries for the next round that are still current and not
      // yet placed (the bucket is freed after the splice) + the message
      // wakes resolved below.
      const int next = round_ + 1;
      for (Shard& sh : shards_) {
        if (next >= static_cast<int>(sh.calendar.size())) continue;
        std::vector<int>& b = sh.calendar[next];
        for (const int i : b) {
          if (wake_round_[i] != next) continue;
          wake_round_[i] = InBucket(next);
          active_.push_back(i);
        }
        std::vector<int>().swap(b);
      }
      stop_clock();
      std::swap(inbox_, outbox_);
      if (notify_armed_) {
        // Message-wake barrier: every receiver of an observable send this
        // round was recorded once in some shard's notified list; wake the
        // ones actually sleeping past the delivery round, after verifying
        // an observable message still sits in their inbox (a later Send may
        // have overwritten the recorded one with silence — the O(deg) scan
        // runs only for genuinely sleeping candidates).
        for (Shard& sh : shards_) {
          for (const int i : sh.notified) wake_if_observable(i);
          sh.notified.clear();
        }
      } else {
        // The run's first parks happened this round with the hook still
        // disarmed, so no send was recorded — scan exactly the nodes that
        // parked (same predicate as the candidate path; identical outcome
        // to an armed round by construction), then arm the hook for the
        // rest of the run.
        for (Shard& sh : shards_) {
          if (sh.parked_now.empty()) continue;
          for (const int i : sh.parked_now) wake_if_observable(i);
          sh.parked_now.clear();
          notify_armed_ = true;
        }
      }
      ++round_;
      ++epoch_;
    }
    finished_ = true;
    return round_;
  }

  // Always-visit shard body: run this shard's worklist range, compacting
  // halted nodes out in place (stable: the engine's node order is
  // preserved, matching the reference engine). Both the external-id lookup
  // (order_) and the state slot stream in ascending rank order.
  const std::function<void(int)> round_task = [&](int t) {
    const int lo = shard_lo(t);
    const int hi = shard_lo(t + 1);
    NodeContext& ctx = ctxs[t];
    Shard& sh = shards_[t];
    int* const work = active_.data();
    const int* const order = order_.data();
    const int* const first = first_.data();
    const int* const send_chan = send_chan_.data();
    const Message* const outbox = outbox_.data();
    const char* const halted = halted_.data();
    unsigned char* const base = state_base;
    const size_t slot = stride;
    support::FaultInjector* const faults = fault;
    const int round = round_;
    int64_t decisions = 0;
    int kept = lo;
    for (int idx = lo; idx < hi; ++idx) {
      // Race-free as in the scheduled body: past idx is this shard's own.
      if (idx + kSendLookahead < hi) {
        PrefetchSends(first, send_chan, outbox, work[idx + kSendLookahead]);
      }
      const int i = work[idx];
      const int v = order[i];
      ctx.node_ = v;
      ctx.rank_ = i;
      ctx.state_ = base + static_cast<size_t>(i) * slot;
      if (faults != nullptr) faults->OnVisit(round);
      const int64_t sb = sh.sent;
      alg.OnRound(ctx);
      decisions += (sh.sent != sb || halted[v]) ? 1 : 0;
      work[kept] = i;
      kept += halted[v] ? 0 : 1;
    }
    sh.kept = kept - lo;
    // decisions measures who acted on this path too (the benches'
    // before/after idle-visit ratio needs it on both).
    sh.decisions = decisions;
  };
  while (!active_.empty()) {
    if (round_ == pause_at_round) {
      // Pause at the boundary BEFORE this round executes; the worklist,
      // mailboxes, and digest chain describe exactly this boundary.
      mid_run_ = true;
      return round_;
    }
    check_round(static_cast<int64_t>(active_.size()));
    start_clock();
    begin_round();
    pool_.ParallelFor(T, round_task);
    end_round(active_now);
    stop_clock();
    // Deliver: O(1) buffer swap; epoch stamps make clearing unnecessary.
    std::swap(inbox_, outbox_);
    ++round_;
    ++epoch_;
  }
  finished_ = true;
  return round_;
}

void Network::Checkpoint(std::ostream& out) const {
  if (!mid_run_ && !finished_) {
    throw SnapshotError(
        "Network::Checkpoint: engine is not at a round boundary (pause with "
        "RunUntil or let a run finish first)");
  }
  // The tag is informational (any engine resumes any snapshot); it keeps
  // naming the sharded configuration so snapshot bytes stay stable.
  const SnapshotEngineKind kind = pool_.num_threads() == 1
                                      ? SnapshotEngineKind::kNetwork
                                      : SnapshotEngineKind::kParallelNetwork;
  // Ranks placed in the boundary round's bucket record that round.
  std::vector<int32_t> wake;
  if (scheduled_) {
    wake = wake_round_;
    for (int32_t& w : wake) w = w < 0 ? ~w : w;
  }
  const SnapshotData snap = internal::BuildSoloSnapshot(
      graph_, ids_, kind, digest_messages_, finished_, round_,
      messages_delivered_, round_stats_, round_msg_acc_, round_digests_,
      halted_, state_, state_stride_, order_, perm_, first_, inbox_, epoch_,
      scheduled_, wake.empty() ? nullptr : wake.data());
  WriteSnapshot(out, snap);
}

void Network::Resume(std::istream& in) {
  SnapshotData snap = ReadSnapshot(in);
  internal::ValidateForEngine(snap, graph_, ids_, /*batch=*/1,
                              digest_messages_, "Network");
  pending_resume_ = std::make_unique<SnapshotData>(std::move(snap));
  mid_run_ = false;
  finished_ = false;
}

}  // namespace treelocal::local
