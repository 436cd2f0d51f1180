#include "src/local/network.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <numeric>
#include <stdexcept>

#include "src/local/snapshot.h"
#include "src/support/fault.h"

namespace treelocal::local {

const Message Network::kNoMessage{};

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

Network::Network(GraphView graph, std::vector<int64_t> ids)
    : Network(graph, std::move(ids), NetworkOptions{}) {}

Network::~Network() = default;  // out of line: pending_resume_'s type

Network::Network(GraphView graph, std::vector<int64_t> ids,
                 const NetworkOptions& options)
    : graph_(graph),
      ids_(std::move(ids)),
      digest_messages_(options.digest_messages),
      wake_opt_(options.wake_scheduling),
      fault_(options.fault) {
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
}

int Network::Run(Algorithm& alg, int max_rounds) {
  return RunUntil(alg, max_rounds, -1);
}

int Network::RunUntil(Algorithm& alg, int max_rounds, int pause_at_round) {
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
  // Calendar insertion: wake rounds at or past max_rounds get no bucket
  // (the run throws at max_rounds before they could matter, and a later
  // continuation with a larger bound rebuilds the calendar from
  // wake_round_ below) — this bounds calendar memory by the caller's own
  // round budget. Duplicate entries for one node are harmless: the drain
  // skips any entry whose wake_round_ no longer matches its bucket.
  const auto push_calendar = [&](int w, int i) {
    if (w >= max_rounds) return;
    if (w >= static_cast<int>(calendar_.size())) calendar_.resize(w + 1);
    calendar_[w].push_back(i);
  };
  if (pending_resume_ != nullptr) {
    // Resume path: restore the checkpointed boundary instead of starting
    // fresh. The epoch must advance (with the pre-run wrap guard) BEFORE
    // the snapshot applies — the deliverable messages are stamped
    // epoch_ - 1, i.e. relative to the epoch the resumed round runs under.
    const std::unique_ptr<SnapshotData> snap = std::move(pending_resume_);
    if (epoch_ >= INT32_MAX - 4) {
      for (auto& m : inbox_) m.engine_stamp = -1;
      for (auto& m : outbox_) m.engine_stamp = -1;
      // The message-wake dedup stamps are epoch-keyed like the mailboxes
      // and must not survive an epoch reset (a stale stamp equal to a
      // future epoch would swallow a wake).
      for (int i = 0; i < n && notify_stamp_ != nullptr; ++i) {
        notify_stamp_[i].store(-1, std::memory_order_relaxed);
      }
      epoch_ = 1;
    }
    epoch_ += 2;
    round_seconds_.clear();
    internal::ApplySoloSnapshot(*snap, graph_, alg.StateBytes(), order_,
                                perm_, first_, inbox_, halted_, active_,
                                state_, state_stride_, round_stats_,
                                round_msg_acc_, round_digests_, digest_,
                                round_, messages_delivered_, epoch_);
    wakes_ = 0;
    if (scheduled) {
      // Rebuild the calendar from the snapshot's per-node wake rounds
      // (external-indexed; a v2 snapshot of an unscheduled run records
      // every live node awake at the boundary, so resuming it scheduled
      // just re-engages the algorithm's sleeps going forward). The
      // always-visit worklist ApplySoloSnapshot built is replaced by the
      // boundary's wake bucket.
      const std::vector<int32_t>& wake = snap->instances[0].wake;
      calendar_.clear();
      active_.clear();
      live_count_ = 0;
      notify_armed_ = false;
      for (int i = 0; i < n; ++i) {
        const int v = order_[i];
        if (halted_[v]) continue;
        ++live_count_;
        int32_t w = wake.empty() ? round_ : wake[v];
        if (w < round_) w = round_;  // validated; belt and braces
        wake_round_[i] = w;
        if (w > round_ + 1) notify_armed_ = true;  // someone already parked
        if (w == round_) {
          active_.push_back(i);
        } else if (w != kNoWakeRound) {
          push_calendar(w, i);
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
    // Advancing by 2 leaves every stamp from the previous run strictly below
    // epoch_ - 1, so round 0 of this run cannot observe stale messages. The
    // 32-bit stamp wraps only after ~2^31 cumulative rounds; when the epoch
    // nears the wrap, re-arm every stamp once — amortized cost zero. (The old
    // guard computed INT32_MAX - max_rounds - 4, which went negative for
    // max_rounds near INT32_MAX, re-armed on every call, and still let a
    // post-re-arm run of ~2^31 rounds overflow the stamp mid-run; the wrap
    // check is now independent of max_rounds, with the mid-run case handled
    // by the per-round rebase below.)
    if (epoch_ >= INT32_MAX - 4) {
      for (auto& m : inbox_) m.engine_stamp = -1;
      for (auto& m : outbox_) m.engine_stamp = -1;
      // The message-wake dedup stamps are epoch-keyed like the mailboxes
      // and must not survive an epoch reset (a stale stamp equal to a
      // future epoch would swallow a wake).
      for (int i = 0; i < n && notify_stamp_ != nullptr; ++i) {
        notify_stamp_[i].store(-1, std::memory_order_relaxed);
      }
      epoch_ = 1;
    }
    epoch_ += 2;
    std::fill(halted_.begin(), halted_.end(), 0);
    wakes_ = 0;
    if (scheduled) {
      // Seed the calendar from the algorithm's declared first-action
      // rounds; round 0's bucket replaces the full iota worklist. Rounds
      // still tick (and record stats and digests) while buckets are empty,
      // so the transcript is bit-identical to the always-visit run.
      calendar_.clear();
      active_.clear();
      live_count_ = n;
      notify_armed_ = false;
      for (int i = 0; i < n; ++i) {
        int w = alg.InitialWakeRound(order_[i]);
        if (w <= 0) {
          wake_round_[i] = 0;
          active_.push_back(i);
        } else {
          wake_round_[i] = w >= kNoWakeRound ? kNoWakeRound : w;
          if (wake_round_[i] > 1) notify_armed_ = true;  // parked past round 1
          push_calendar(wake_round_[i], i);
        }
      }
    } else {
      // The worklist holds INTERNAL ranks; external ids come from order_ at
      // visit time, so the state plane below is walked in rank (= worklist)
      // order every round, relabeled or not.
      active_.resize(n);
      std::iota(active_.begin(), active_.end(), 0);
    }
    internal::ArmStatePlane(alg, n, order_.data(), state_, state_stride_);
  } else if (scheduled) {
    // Continuing a paused scheduled run: the current bucket (active_) and
    // wake rounds are live, but the calendar was bounded by the PREVIOUS
    // call's max_rounds — rebuild it from wake_round_ under the new bound.
    // Duplicates with surviving entries are skipped by the stale drain.
    calendar_.clear();
    notify_armed_ = false;
    for (int i = 0; i < n; ++i) {
      const int32_t w = wake_round_[i];
      if (halted_[order_[i]]) continue;
      if (w > round_ + 1) notify_armed_ = true;  // parked (incl. forever)
      if (w > round_ && w != kNoWakeRound) push_calendar(w, i);
    }
  }
  // else: continuing a paused run — mailboxes, worklist, state plane, and
  // the digest chain are all live exactly as the pause left them.
  mid_run_ = false;  // any exit other than the pause return is not a pause
  finished_ = false;
  unsigned char* const state_base = state_.data();
  const size_t stride = state_stride_;
  support::FaultInjector* const fault = fault_;

  NodeContext ctx(graph_, ids_.data(), nullptr, nullptr);
  ctx.first_ = first_.data();
  ctx.send_chan_ = send_chan_.data();
  ctx.halted_ = halted_.data();
  ctx.sent_ = &messages_delivered_;
  ctx.macc_ = digest_messages_ ? &msg_acc_ : nullptr;
  scheduled_ = scheduled;

  if (scheduled) {
    // Wake-scheduled round loop. Transcript identity with the legacy loop
    // below is by construction: active_nodes records the LIVE count (not
    // visits), rounds tick even when the current bucket is empty, and any
    // node that would have observed new input on the always-visit path is
    // woken for the delivery round at the barrier. Only visits shrink.
    ctx.chan_owner_ = chan_owner_.data();
    ctx.notified_ = &notified_;
    notified_.clear();
    parked_now_.clear();
    // Wake a sleeping candidate iff an observable message actually sits in
    // its (post-swap) inbox — shared by the armed-hook candidate loop and
    // the disarmed transition scan below, so both resolve wakes through
    // one predicate.
    const auto wake_if_observable = [&](int i) {
      if (halted_[order_[i]] || wake_round_[i] <= round_ + 1) return;
      const int lo = first_[i];
      const int hi = first_[i + 1];
      bool observable = false;
      for (int c = lo; c < hi && !observable; ++c) {
        const Message& msg = inbox_[c];
        observable = msg.engine_stamp == epoch_ &&
                     (msg.size != 0 || msg.word0 != 0 || msg.word1 != 0);
      }
      if (observable) {
        wake_round_[i] = round_ + 1;
        active_.push_back(i);
        ++wakes_;
      }
    };
    while (live_count_ > 0) {
      if (round_ == pause_at_round) {
        mid_run_ = true;
        return round_;
      }
      if (fault != nullptr) fault->AtRoundBoundary(round_);
      if (round_ >= max_rounds) {
        throw MaxRoundsExceededError("Network::Run", round_,
                                     static_cast<int64_t>(live_count_),
                                     digest_);
      }
      if (epoch_ >= INT32_MAX - 2) {
        for (auto& m : outbox_) m.engine_stamp = -1;
        for (auto& m : inbox_) {
          m.engine_stamp = m.engine_stamp == epoch_ - 1 ? 2 : -1;
        }
        for (int i = 0; i < n; ++i) {
          notify_stamp_[i].store(-1, std::memory_order_relaxed);
        }
        epoch_ = 3;
      }
      ctx.round_ = round_;
      ctx.inbox_ = inbox_.data();
      ctx.outbox_ = outbox_.data();
      ctx.epoch_ = epoch_;
      // Send-side wake recording only while someone is parked: a null
      // notify_stamp_ turns the whole hook into one predictable branch, so
      // a dense scheduled run (nobody ever sleeps past the next round)
      // sends at exactly the legacy loop's cost.
      ctx.notify_stamp_ = notify_armed_ ? notify_stamp_.get() : nullptr;
      std::chrono::steady_clock::time_point t0;
      if (record_round_times_) t0 = std::chrono::steady_clock::now();
      const int live_now = live_count_;
      const int64_t sent_before = messages_delivered_;
      msg_acc_ = 0;
      int64_t visits = 0;
      int64_t decisions = 0;
      // Drain this round's bucket. An entry is valid iff its node is live
      // and its wake round still equals this round — every visit moves the
      // wake round past round_, so duplicate entries (sleep, message-wake,
      // re-sleep into the same bucket) self-invalidate after the first.
      const int bucket_now = static_cast<int>(active_.size());
      size_t kept = 0;
      for (int idx = 0; idx < bucket_now; ++idx) {
        const int i = active_[idx];
        const int v = order_[i];
        if (halted_[v] || wake_round_[i] != round_) continue;
        ctx.node_ = v;
        ctx.rank_ = i;
        ctx.state_ = state_base + static_cast<size_t>(i) * stride;
        ctx.sleep_until_ = round_ + 1;  // default: act again next round
        if (fault != nullptr) fault->OnVisit(round_);
        const int64_t sb = messages_delivered_;
        alg.OnRound(ctx);
        ++visits;
        if (halted_[v]) {
          --live_count_;
          ++decisions;  // halting is a decision; Halt wins over any sleep
          continue;
        }
        decisions += messages_delivered_ != sb ? 1 : 0;
        const int32_t w =
            ctx.sleep_until_ <= round_ ? round_ + 1 : ctx.sleep_until_;
        wake_round_[i] = w;
        if (w == round_ + 1) {
          active_[kept++] = i;  // survivor: stays in next round's bucket
        } else {
          push_calendar(w, i);
          // Hook was off this round, so sends targeting this node were not
          // recorded; the barrier scans its inbox directly before parking
          // sticks, then arms the hook.
          if (!notify_armed_) parked_now_.push_back(i);
        }
      }
      active_.resize(kept);
      // Next round's bucket = survivors + the calendar's round_+1 bucket
      // (freed after the splice) + message wakes resolved below.
      if (round_ + 1 < static_cast<int>(calendar_.size())) {
        std::vector<int>& b = calendar_[round_ + 1];
        active_.insert(active_.end(), b.begin(), b.end());
        std::vector<int>().swap(b);
      }
      const int64_t round_sent = messages_delivered_ - sent_before;
      round_stats_.push_back({live_now, round_sent, visits, decisions});
      round_msg_acc_.push_back(msg_acc_);
      digest_ =
          support::ChainDigest(digest_, live_now, round_sent, msg_acc_);
      round_digests_.push_back(digest_);
      if (record_round_times_) {
        round_seconds_.push_back(
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count());
      }
      std::swap(inbox_, outbox_);
      if (notify_armed_) {
        // Message-wake barrier: every receiver of an observable send this
        // round was recorded once in notified_; wake the ones actually
        // sleeping past the delivery round, after verifying an observable
        // message still sits in their inbox (a later Send may have
        // overwritten the recorded one with silence — the O(deg) scan runs
        // only for genuinely sleeping candidates).
        for (const int i : notified_) wake_if_observable(i);
        notified_.clear();
      } else if (!parked_now_.empty()) {
        // The run's first parks happened this round with the hook still
        // disarmed, so no send was recorded — scan exactly the nodes that
        // parked (same observability predicate as the candidate path;
        // identical outcome to an armed round by construction), then arm
        // the hook for the rest of the run.
        for (const int i : parked_now_) wake_if_observable(i);
        parked_now_.clear();
        notify_armed_ = true;
      }
      ++round_;
      ++epoch_;
    }
    finished_ = true;
    return round_;
  }

  while (!active_.empty()) {
    if (round_ == pause_at_round) {
      // Pause at the boundary BEFORE this round executes; the worklist,
      // mailboxes, and digest chain describe exactly this boundary.
      mid_run_ = true;
      return round_;
    }
    if (fault != nullptr) fault->AtRoundBoundary(round_);
    if (round_ >= max_rounds) {
      throw MaxRoundsExceededError("Network::Run", round_,
                                   static_cast<int64_t>(active_.size()),
                                   digest_);
    }
    if (epoch_ >= INT32_MAX - 2) {
      // Mid-run rebase (a single run of ~2^31 rounds): keep exactly this
      // round's deliverable messages visible, invalidate everything else.
      // One O(2m) pass per ~2^31 rounds — amortized cost zero.
      for (auto& m : outbox_) m.engine_stamp = -1;
      for (auto& m : inbox_) {
        m.engine_stamp = m.engine_stamp == epoch_ - 1 ? 2 : -1;
      }
      epoch_ = 3;
    }
    ctx.round_ = round_;
    // Refreshed every round: the mailboxes swap below, and the epoch moves.
    ctx.inbox_ = inbox_.data();
    ctx.outbox_ = outbox_.data();
    ctx.epoch_ = epoch_;
    std::chrono::steady_clock::time_point t0;
    if (record_round_times_) t0 = std::chrono::steady_clock::now();
    const int active_now = static_cast<int>(active_.size());
    const int64_t sent_before = messages_delivered_;
    msg_acc_ = 0;
    // Run all active nodes, compacting halted ones out in place (stable:
    // the engine's node order is preserved, matching the reference engine).
    // Both the external-id lookup (order_) and the state slot stream in
    // ascending rank order.
    int64_t decisions = 0;
    size_t kept = 0;
    for (int idx = 0; idx < active_now; ++idx) {
      const int i = active_[idx];
      const int v = order_[i];
      ctx.node_ = v;
      ctx.rank_ = i;
      ctx.state_ = state_base + static_cast<size_t>(i) * stride;
      if (fault != nullptr) fault->OnVisit(round_);
      const int64_t sb = messages_delivered_;
      alg.OnRound(ctx);
      decisions += (messages_delivered_ != sb || halted_[v]) ? 1 : 0;
      active_[kept] = i;
      kept += halted_[v] ? 0 : 1;
    }
    active_.resize(kept);
    const int64_t round_sent = messages_delivered_ - sent_before;
    // Always-visit path: every live node was visited this round, so
    // visits == active_nodes; decisions still measures who acted (the
    // benches' before/after idle-visit ratio needs it on BOTH paths).
    round_stats_.push_back({active_now, round_sent, active_now, decisions});
    round_msg_acc_.push_back(msg_acc_);
    digest_ = support::ChainDigest(digest_, active_now, round_sent, msg_acc_);
    round_digests_.push_back(digest_);
    if (record_round_times_) {
      round_seconds_.push_back(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count());
    }
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
  const SnapshotData snap = internal::BuildSoloSnapshot(
      graph_, ids_, SnapshotEngineKind::kNetwork, digest_messages_,
      finished_, round_, messages_delivered_, round_stats_, round_msg_acc_,
      round_digests_, halted_, state_, state_stride_, order_, perm_, first_,
      inbox_, epoch_, scheduled_,
      wake_round_.empty() ? nullptr : wake_round_.data());
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
