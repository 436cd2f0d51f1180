#include "src/local/parallel_network.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <numeric>
#include <stdexcept>

#include "src/local/snapshot.h"
#include "src/support/fault.h"

namespace treelocal::local {

ParallelNetwork::~ParallelNetwork() = default;

ParallelNetwork::ParallelNetwork(GraphView graph, std::vector<int64_t> ids,
                                 int num_threads)
    : ParallelNetwork(graph, std::move(ids), num_threads, NetworkOptions{}) {}

ParallelNetwork::ParallelNetwork(GraphView graph, std::vector<int64_t> ids,
                                 int num_threads,
                                 const NetworkOptions& options)
    : graph_(graph),
      ids_(std::move(ids)),
      wake_opt_(options.wake_scheduling),
      digest_messages_(options.digest_messages),
      fault_(options.fault),
      pool_(num_threads) {
  assert(static_cast<int>(ids_.size()) == graph.NumNodes());
  internal::ValidateChannelScale(graph.NumNodes(), graph.NumEdges(),
                                 "ParallelNetwork");
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

int ParallelNetwork::Run(Algorithm& alg, int max_rounds) {
  return RunUntil(alg, max_rounds, -1);
}

int ParallelNetwork::RunUntil(Algorithm& alg, int max_rounds,
                              int pause_at_round) {
  const int T = pool_.num_threads();
  const int n = graph_.NumNodes();
  // Wake-scheduling setup, identical to Network::RunUntil (see there for
  // the calendar-bounding and duplicate-entry reasoning).
  const bool scheduled = wake_opt_ && alg.WakeScheduled();
  if (scheduled && wake_round_.empty() && n > 0) {
    wake_round_.assign(n, 0);
    bucket_stamp_.assign(n, -1);
    chan_owner_ = internal::BuildChanOwner(first_);
    notify_stamp_.reset(new std::atomic<int32_t>[n]);
    for (int i = 0; i < n; ++i) {
      notify_stamp_[i].store(-1, std::memory_order_relaxed);
    }
  }
  const auto push_calendar = [&](int w, int i) {
    if (w >= max_rounds) return;
    if (w >= static_cast<int>(calendar_.size())) calendar_.resize(w + 1);
    calendar_[w].push_back(i);
  };
  if (pending_resume_ != nullptr) {
    // Resume path, identical to Network::RunUntil's: epoch advance (with
    // the wrap guard) first, so the applied deliverables' epoch_ - 1 stamps
    // are relative to the resumed round's epoch.
    const std::unique_ptr<SnapshotData> snap = std::move(pending_resume_);
    if (epoch_ >= INT32_MAX - 4) {
      for (auto& m : inbox_) m.engine_stamp = -1;
      for (auto& m : outbox_) m.engine_stamp = -1;
      // Epoch-keyed wake-dedup stamps must not survive an epoch reset
      // (see Network::RunUntil).
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
      // Rebuild the wake bucket/calendar from the snapshot's per-node wake
      // rounds, as in Network::RunUntil. Bucket-dedup stamps are keyed by
      // round number, which restarts per run — a stale stamp equal to a
      // future round would silently swallow that node's calendar splice.
      std::fill(bucket_stamp_.begin(), bucket_stamp_.end(), -1);
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
        if (w < round_) w = round_;
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
    round_ = 0;
    messages_delivered_ = 0;
    round_stats_.clear();
    round_seconds_.clear();
    round_msg_acc_.clear();
    round_digests_.clear();
    digest_ = support::kDigestSeed;
    // Epoch scheme identical to Network::Run: advance by 2 so round 0 cannot
    // see the previous run's stamps; re-arm once near the 32-bit wrap.
    if (epoch_ >= INT32_MAX - 4) {
      for (auto& m : inbox_) m.engine_stamp = -1;
      for (auto& m : outbox_) m.engine_stamp = -1;
      // Epoch-keyed wake-dedup stamps must not survive an epoch reset
      // (see Network::RunUntil).
      for (int i = 0; i < n && notify_stamp_ != nullptr; ++i) {
        notify_stamp_[i].store(-1, std::memory_order_relaxed);
      }
      epoch_ = 1;
    }
    epoch_ += 2;
    std::fill(halted_.begin(), halted_.end(), 0);
    wakes_ = 0;
    if (scheduled) {
      // Seed the calendar from the declared first-action rounds, as in
      // Network::RunUntil. Stamps are round-keyed and rounds restart here —
      // a stale stamp from the previous run that happens to equal a future
      // round of THIS run would make the barrier skip that node's bucket
      // push, losing the visit forever.
      std::fill(bucket_stamp_.begin(), bucket_stamp_.end(), -1);
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
      // Internal-rank worklist + internal-indexed state plane, as in
      // Network; the single InitState pass runs on the calling thread
      // (per-node init is order-independent by contract, and Run-setup
      // cost is not sharded).
      active_.resize(n);
      std::iota(active_.begin(), active_.end(), 0);
    }
    internal::ArmStatePlane(alg, n, order_.data(), state_, state_stride_);
  } else if (scheduled) {
    // Continuing a paused scheduled run: rebuild the calendar from
    // wake_round_ under this call's max_rounds (see Network::RunUntil).
    calendar_.clear();
    notify_armed_ = false;
    for (int i = 0; i < n; ++i) {
      const int32_t w = wake_round_[i];
      if (halted_[order_[i]]) continue;
      if (w > round_ + 1) notify_armed_ = true;  // parked (incl. forever)
      if (w > round_ && w != kNoWakeRound) push_calendar(w, i);
    }
  }
  mid_run_ = false;
  finished_ = false;
  scheduled_ = scheduled;
  unsigned char* const state_base = state_.data();
  const size_t stride = state_stride_;
  support::FaultInjector* const fault = fault_;

  // One context per shard: identical CSR views except for the per-shard
  // message counter slot. Rebuilt per Run (T small), reusing no heap.
  std::vector<NodeContext> ctxs;
  ctxs.reserve(T);
  for (int t = 0; t < T; ++t) {
    ctxs.push_back(NodeContext(graph_, ids_.data(), nullptr, nullptr));
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
  auto shard_lo = [&](int t) {
    return static_cast<int>(static_cast<int64_t>(active_now) * t / T);
  };
  // One std::function for the whole run (the per-round state it reads —
  // active_now, the round's ctx views — is re-captured by reference), so
  // tail rounds fork without a per-round allocation.
  const std::function<void(int)> round_task = [&](int t) {
    const int lo = shard_lo(t);
    const int hi = shard_lo(t + 1);
    NodeContext& ctx = ctxs[t];
    int* work = active_.data();
    // Stable in-place compaction of this shard's own range, exactly the
    // serial engine's loop restricted to [lo, hi). Worklist entries are
    // internal ranks; each node touches only its own state slot, so the
    // shared plane needs no synchronization (see StateAt).
    Shard& sh = shards_[t];
    int kept = lo;
    for (int idx = lo; idx < hi; ++idx) {
      const int i = work[idx];
      const int v = order_[i];
      ctx.node_ = v;
      ctx.rank_ = i;
      ctx.state_ = state_base + static_cast<size_t>(i) * stride;
      if (fault != nullptr) fault->OnVisit(round_);
      const int64_t sb = sh.sent;
      alg.OnRound(ctx);
      sh.decisions += (sh.sent != sb || halted_[v]) ? 1 : 0;
      work[kept] = i;
      kept += halted_[v] ? 0 : 1;
    }
    sh.kept = kept - lo;
  };

  // Scheduled round task: the serial engine's bucket drain restricted to
  // [lo, hi). No stale-entry skip races: bucket entries are unique (barrier
  // dedup), so this shard is the only writer of its entries' wake rounds.
  const std::function<void(int)> sched_round_task = [&](int t) {
    const int lo = shard_lo(t);
    const int hi = shard_lo(t + 1);
    NodeContext& ctx = ctxs[t];
    Shard& sh = shards_[t];
    int* work = active_.data();
    int kept = lo;
    for (int idx = lo; idx < hi; ++idx) {
      const int i = work[idx];
      const int v = order_[i];
      if (halted_[v] || wake_round_[i] != round_) continue;
      ctx.node_ = v;
      ctx.rank_ = i;
      ctx.state_ = state_base + static_cast<size_t>(i) * stride;
      ctx.sleep_until_ = round_ + 1;
      if (fault != nullptr) fault->OnVisit(round_);
      const int64_t sb = sh.sent;
      alg.OnRound(ctx);
      ++sh.visits;
      if (halted_[v]) {
        ++sh.halts;
        ++sh.decisions;
        continue;
      }
      sh.decisions += sh.sent != sb ? 1 : 0;
      const int32_t w =
          ctx.sleep_until_ <= round_ ? round_ + 1 : ctx.sleep_until_;
      wake_round_[i] = w;
      if (w == round_ + 1) {
        work[kept++] = i;
      } else {
        sh.slept.push_back(i);  // distributed into the calendar serially
      }
    }
    sh.kept = kept - lo;
  };

  if (scheduled) {
    while (live_count_ > 0) {
      if (round_ == pause_at_round) {
        mid_run_ = true;
        return round_;
      }
      if (fault != nullptr) fault->AtRoundBoundary(round_);
      if (round_ >= max_rounds) {
        throw MaxRoundsExceededError("ParallelNetwork::Run", round_,
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
      std::chrono::steady_clock::time_point t0;
      if (record_round_times_) t0 = std::chrono::steady_clock::now();
      active_now = static_cast<int>(active_.size());
      const int live_now = live_count_;
      for (int t = 0; t < T; ++t) {
        NodeContext& ctx = ctxs[t];
        ctx.round_ = round_;
        ctx.inbox_ = inbox_.data();
        ctx.outbox_ = outbox_.data();
        ctx.epoch_ = epoch_;
        ctx.notify_stamp_ = notify_armed_ ? notify_stamp_.get() : nullptr;
        shards_[t].sent = 0;
        shards_[t].macc = 0;
        shards_[t].kept = 0;
        shards_[t].visits = 0;
        shards_[t].decisions = 0;
        shards_[t].halts = 0;
        shards_[t].slept.clear();
        shards_[t].notified.clear();
      }
      pool_.ParallelFor(T, sched_round_task);
      // Round barrier. Reductions are sums, so every total matches the
      // serial engine's; the digest input is the LIVE count, which is what
      // keeps scheduled and unscheduled transcripts bit-identical.
      int64_t round_sent = 0;
      uint64_t round_macc = 0;
      int64_t visits = 0;
      int64_t decisions = 0;
      int halts = 0;
      for (int t = 0; t < T; ++t) {
        round_sent += shards_[t].sent;
        round_macc += shards_[t].macc;
        visits += shards_[t].visits;
        decisions += shards_[t].decisions;
        halts += shards_[t].halts;
      }
      live_count_ -= halts;
      messages_delivered_ += round_sent;
      round_stats_.push_back({live_now, round_sent, visits, decisions});
      round_msg_acc_.push_back(round_macc);
      digest_ =
          support::ChainDigest(digest_, live_now, round_sent, round_macc);
      round_digests_.push_back(digest_);
      // Assemble the next bucket: stitch the shards' surviving prefixes,
      // stamp them, distribute this round's sleeps into the calendar, then
      // splice the calendar's next bucket with stamp dedup — the bucket
      // must hold each rank at most once before shards touch it again.
      int dst = shards_[0].kept;
      for (int t = 1; t < T; ++t) {
        const int lo = shard_lo(t);
        const int kept = shards_[t].kept;
        for (int j = 0; j < kept; ++j) active_[dst + j] = active_[lo + j];
        dst += kept;
      }
      active_.resize(dst);
      const int next = round_ + 1;
      for (int j = 0; j < dst; ++j) bucket_stamp_[active_[j]] = next;
      for (int t = 0; t < T; ++t) {
        for (const int i : shards_[t].slept) {
          push_calendar(wake_round_[i], i);
        }
      }
      if (next < static_cast<int>(calendar_.size())) {
        std::vector<int>& b = calendar_[next];
        for (const int i : b) {
          if (bucket_stamp_[i] == next || halted_[order_[i]]) continue;
          bucket_stamp_[i] = next;
          active_.push_back(i);
        }
        std::vector<int>().swap(b);
      }
      if (record_round_times_) {
        round_seconds_.push_back(
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count());
      }
      std::swap(inbox_, outbox_);
      // Message-wake barrier, serial: as in Network::RunUntil, with the
      // bucket stamp deciding whether a woken rank still needs a push (a
      // stale calendar entry may already sit in the bucket — rewriting its
      // wake round makes that entry the wake visit).
      const auto wake_if_observable = [&](int i) {
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
          wake_round_[i] = next;
          ++wakes_;
          if (bucket_stamp_[i] != next) {
            bucket_stamp_[i] = next;
            active_.push_back(i);
          }
        }
      };
      if (notify_armed_) {
        for (int t = 0; t < T; ++t) {
          for (const int i : shards_[t].notified) wake_if_observable(i);
        }
      } else {
        // The run's first parks happened this round with the hook still
        // disarmed, so no sends were recorded — the shards' slept lists ARE
        // the newly-parked set; scan exactly those inboxes (same predicate
        // as the candidate path, identical outcome by construction), then
        // arm the hook for the rest of the run.
        bool any_parked = false;
        for (int t = 0; t < T; ++t) {
          for (const int i : shards_[t].slept) {
            any_parked = true;
            wake_if_observable(i);
          }
        }
        if (any_parked) notify_armed_ = true;
      }
      ++round_;
      ++epoch_;
    }
    finished_ = true;
    return round_;
  }

  while (!active_.empty()) {
    if (round_ == pause_at_round) {
      mid_run_ = true;
      return round_;
    }
    if (fault != nullptr) fault->AtRoundBoundary(round_);
    if (round_ >= max_rounds) {
      throw MaxRoundsExceededError("ParallelNetwork::Run", round_,
                                   static_cast<int64_t>(active_.size()),
                                   digest_);
    }
    if (epoch_ >= INT32_MAX - 2) {
      // Mid-run rebase, as in Network::Run.
      for (auto& m : outbox_) m.engine_stamp = -1;
      for (auto& m : inbox_) {
        m.engine_stamp = m.engine_stamp == epoch_ - 1 ? 2 : -1;
      }
      epoch_ = 3;
    }
    std::chrono::steady_clock::time_point t0;
    if (record_round_times_) t0 = std::chrono::steady_clock::now();
    active_now = static_cast<int>(active_.size());
    for (int t = 0; t < T; ++t) {
      NodeContext& ctx = ctxs[t];
      ctx.round_ = round_;
      ctx.inbox_ = inbox_.data();
      ctx.outbox_ = outbox_.data();
      ctx.epoch_ = epoch_;
      shards_[t].sent = 0;
      shards_[t].macc = 0;
      shards_[t].kept = 0;
      shards_[t].decisions = 0;
    }
    pool_.ParallelFor(T, round_task);
    // Round barrier (the pool join above is the visibility fence): reduce
    // the per-shard message counters — a sum, so the total equals the
    // serial engine's regardless of sharding — and stitch the compacted
    // shard prefixes into one dense worklist, preserving node order. The
    // content accumulator reduces the same way (per-send hashes sum mod
    // 2^64, so any sharding yields the serial value).
    int64_t round_sent = 0;
    uint64_t round_macc = 0;
    int64_t decisions = 0;
    for (int t = 0; t < T; ++t) {
      round_sent += shards_[t].sent;
      round_macc += shards_[t].macc;
      decisions += shards_[t].decisions;
    }
    messages_delivered_ += round_sent;
    round_stats_.push_back({active_now, round_sent, active_now, decisions});
    round_msg_acc_.push_back(round_macc);
    digest_ = support::ChainDigest(digest_, active_now, round_sent, round_macc);
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
    if (record_round_times_) {
      round_seconds_.push_back(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count());
    }
    std::swap(inbox_, outbox_);
    ++round_;
    ++epoch_;
  }
  finished_ = true;
  return round_;
}

void ParallelNetwork::Checkpoint(std::ostream& out) const {
  if (!mid_run_ && !finished_) {
    throw SnapshotError(
        "ParallelNetwork::Checkpoint: engine is not at a round boundary "
        "(pause with RunUntil or let a run finish first)");
  }
  const SnapshotData snap = internal::BuildSoloSnapshot(
      graph_, ids_, SnapshotEngineKind::kParallelNetwork, digest_messages_,
      finished_, round_, messages_delivered_, round_stats_, round_msg_acc_,
      round_digests_, halted_, state_, state_stride_, order_, perm_, first_,
      inbox_, epoch_, scheduled_,
      wake_round_.empty() ? nullptr : wake_round_.data());
  WriteSnapshot(out, snap);
}

void ParallelNetwork::Resume(std::istream& in) {
  SnapshotData snap = ReadSnapshot(in);
  internal::ValidateForEngine(snap, graph_, ids_, /*batch=*/1,
                              digest_messages_, "ParallelNetwork");
  pending_resume_ = std::make_unique<SnapshotData>(std::move(snap));
  mid_run_ = false;
  finished_ = false;
}

}  // namespace treelocal::local
