#include "src/local/reference_network.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "src/local/snapshot.h"
#include "src/support/fault.h"

namespace treelocal::local {

namespace internal {

const Message& RefRecv(const ReferenceNetwork& ref, int node, int port) {
  return ref.RecvAt(node, port);
}

void RefSend(ReferenceNetwork& ref, int node, int port, Message m) {
  ref.SendAt(node, port, m);
}

void RefHalt(ReferenceNetwork& ref, int node) { ref.HaltAt(node); }

}  // namespace internal

ReferenceNetwork::~ReferenceNetwork() = default;

ReferenceNetwork::ReferenceNetwork(GraphView graph, std::vector<int64_t> ids)
    : ReferenceNetwork(graph, std::move(ids), NetworkOptions{}) {}

ReferenceNetwork::ReferenceNetwork(GraphView graph, std::vector<int64_t> ids,
                                   const NetworkOptions& options)
    : graph_(graph),
      ids_(std::move(ids)),
      digest_messages_(options.digest_messages),
      fault_(options.fault),
      wake_opt_(options.wake_scheduling) {
  assert(static_cast<int>(ids_.size()) == graph.NumNodes());
  internal::ValidateChannelScale(graph.NumNodes(), graph.NumEdges(),
                                 "ReferenceNetwork");
  const int n = graph.NumNodes();
  const size_t channels = 2 * static_cast<size_t>(graph.NumEdges());
  inbox_.assign(channels, Message{});
  outbox_.assign(channels, Message{});
  halted_.assign(n, 0);
  // Materialize the port -> (edge, slot) tables and invert the channel
  // indexing once: Channel(e, s) holds what endpoint s of edge e sent, on
  // this port of the sender. Used by every channel access, the content
  // digest's inbox scan, and Resume's deliverable placement. Edge ids fit
  // int here (ValidateChannelScale above bounds 2m).
  inc_off_.assign(n + 1, 0);
  for (int v = 0; v < n; ++v) inc_off_[v + 1] = inc_off_[v] + graph.Degree(v);
  port_edge_.assign(channels, 0);
  port_slot_.assign(channels, 0);
  chan_sender_.assign(channels, 0);
  chan_port_.assign(channels, 0);
  for (int v = 0; v < n; ++v) {
    int p = 0;
    graph.ForEachNeighbor(v, [&](int u) {
      const int e = static_cast<int>(graph.EdgeBetween(v, u));
      const int slot = graph.Endpoints(e).first == v ? 0 : 1;
      port_edge_[inc_off_[v] + p] = e;
      port_slot_[inc_off_[v] + p] = slot;
      const size_t c = Channel(e, slot);
      chan_sender_[c] = v;
      chan_port_[c] = p;
      ++p;
    });
  }
}

const Message& ReferenceNetwork::RecvAt(int node, int port) const {
  const int i = inc_off_[node] + port;
  return inbox_[Channel(port_edge_[i], 1 - port_slot_[i])];
}

void ReferenceNetwork::SendAt(int node, int port, Message m) {
  const int i = inc_off_[node] + port;
  Message& slot = outbox_[Channel(port_edge_[i], port_slot_[i])];
  visit_sent_delta_ +=
      static_cast<int>(m.present()) - static_cast<int>(slot.present());
  slot = m;
}

void ReferenceNetwork::HaltAt(int node) {
  if (!halted_[node]) {
    halted_[node] = 1;
    ++num_halted_;
  }
}

int ReferenceNetwork::Run(Algorithm& alg, int max_rounds) {
  return RunUntil(alg, max_rounds, -1);
}

int ReferenceNetwork::RunUntil(Algorithm& alg, int max_rounds,
                               int pause_at_round) {
  const int n = graph_.NumNodes();
  const bool scheduled = wake_opt_ && alg.WakeScheduled();
  if (scheduled && wake_round_.empty()) wake_round_.assign(n, 0);
  if (pending_resume_ != nullptr) {
    const std::unique_ptr<SnapshotData> snap = std::move(pending_resume_);
    const SnapshotData::Instance& inst = snap->instances[0];
    if (inst.state_stride != alg.StateBytes()) {
      throw SnapshotError(
          "resume state stride mismatch: snapshot has " +
          std::to_string(inst.state_stride) +
          " bytes/node, algorithm declares " +
          std::to_string(alg.StateBytes()) +
          " (resumed with a different Algorithm?)");
    }
    if (static_cast<int32_t>(inst.rounds.size()) != snap->round) {
      throw SnapshotError(
          "solo snapshot must carry one round record per executed round");
    }
    round_ = snap->round;
    messages_delivered_ = inst.messages_delivered;
    round_stats_.clear();
    round_msg_acc_.clear();
    round_digests_.clear();
    digest_ = support::kDigestSeed;
    for (const SnapshotRound& r : inst.rounds) {
      round_stats_.push_back(r.stats);
      round_msg_acc_.push_back(r.msg_acc);
      round_digests_.push_back(r.digest);
      digest_ = r.digest;
    }
    std::copy(inst.halted.begin(), inst.halted.end(), halted_.begin());
    num_halted_ = static_cast<int>(
        std::count(halted_.begin(), halted_.end(), char{1}));
    state_stride_ = alg.StateBytes();
    state_.assign(inst.state.begin(), inst.state.end());  // external-indexed
    std::fill(inbox_.begin(), inbox_.end(), Message{});
    std::fill(outbox_.begin(), outbox_.end(), Message{});
    // Place each deliverable where the receiver's RecvAt(node, port) looks:
    // the channel the far endpoint of that port sent on.
    for (const SnapshotMessage& msg : inst.deliverable) {
      const int i = inc_off_[msg.node] + msg.port;
      inbox_[Channel(port_edge_[i], 1 - port_slot_[i])] =
          Message{msg.word0, msg.word1, msg.size};
    }
    wakes_ = 0;
    if (scheduled) {
      // The snapshot's wake plane is external-indexed — exactly this
      // engine's layout (an unscheduled-run snapshot records every live
      // node awake at the boundary).
      for (int v = 0; v < n; ++v) {
        int32_t w = halted_[v] || inst.wake.empty() ? round_ : inst.wake[v];
        if (w < round_) w = round_;
        wake_round_[v] = w;
      }
    }
  } else if (!mid_run_) {
    round_ = 0;
    num_halted_ = 0;
    messages_delivered_ = 0;
    round_stats_.clear();
    round_msg_acc_.clear();
    round_digests_.clear();
    digest_ = support::kDigestSeed;
    std::fill(halted_.begin(), halted_.end(), 0);
    std::fill(inbox_.begin(), inbox_.end(), Message{});
    std::fill(outbox_.begin(), outbox_.end(), Message{});
    wakes_ = 0;
    if (scheduled) {
      for (int v = 0; v < n; ++v) {
        const int w = alg.InitialWakeRound(v);
        wake_round_[v] = w <= 0 ? 0 : (w >= kNoWakeRound ? kNoWakeRound : w);
      }
    }
    internal::ArmStatePlane(alg, n, nullptr, state_, state_stride_);
  }
  // else: continuing a paused run — everything is live as the pause left it
  // (including the wake rounds; the naive engine keeps no calendar, so
  // there is nothing to rebuild).
  mid_run_ = false;
  finished_ = false;
  scheduled_ = scheduled;
  support::FaultInjector* const fault = fault_;

  NodeContext ctx(graph_, ids_.data(), this);
  while (num_halted_ < n) {
    if (round_ == pause_at_round) {
      mid_run_ = true;
      return round_;
    }
    if (fault != nullptr) fault->AtRoundBoundary(round_);
    if (round_ >= max_rounds) {
      throw MaxRoundsExceededError("ReferenceNetwork::Run", round_,
                                   n - num_halted_, digest_);
    }
    ctx.round_ = round_;
    const int active_now = n - num_halted_;
    int64_t visits = 0;
    int64_t decisions = 0;
    for (int v = 0; v < n; ++v) {
      if (halted_[v]) continue;
      if (scheduled && wake_round_[v] != round_) continue;
      ctx.node_ = v;
      ctx.state_ = state_.data() + static_cast<size_t>(v) * state_stride_;
      ctx.sleep_until_ = round_ + 1;
      if (fault != nullptr) fault->OnVisit(round_);
      visit_sent_delta_ = 0;
      alg.OnRound(ctx);
      ++visits;
      decisions += (visit_sent_delta_ != 0 || halted_[v]) ? 1 : 0;
      if (scheduled && !halted_[v]) {
        wake_round_[v] =
            ctx.sleep_until_ <= round_ ? round_ + 1 : ctx.sleep_until_;
      }
    }
    // Deliver: what was sent this round is readable next round.
    std::swap(inbox_, outbox_);
    for (auto& m : outbox_) m = Message{};
    int64_t sent = 0;
    uint64_t macc = 0;
    for (size_t c = 0; c < inbox_.size(); ++c) {
      const Message& m = inbox_[c];
      if (m.present()) {
        ++sent;
        if (digest_messages_) {
          // Sender-keyed, like the optimized engines' Send-path hashing
          // (the naive engine pays its usual O(2m) scan instead).
          macc += support::MessageHash(chan_sender_[c], chan_port_[c],
                                       m.word0, m.word1, m.size);
        }
      }
      if (scheduled && (m.size != 0 || m.word0 != 0 || m.word1 != 0)) {
        // Message-wake invariant, spelled out: the receiver of channel
        // Channel(e, s) is the sender of Channel(e, 1-s), i.e. the other
        // endpoint. Any observable delivery pulls a sleeping receiver to
        // the next round.
        const int recv = chan_sender_[c ^ size_t{1}];
        if (!halted_[recv] && wake_round_[recv] > round_ + 1) {
          wake_round_[recv] = round_ + 1;
          ++wakes_;
        }
      }
    }
    messages_delivered_ += sent;
    round_stats_.push_back(
        {active_now, sent, scheduled ? visits : active_now, decisions});
    round_msg_acc_.push_back(macc);
    digest_ = support::ChainDigest(digest_, active_now, sent, macc);
    round_digests_.push_back(digest_);
    ++round_;
  }
  finished_ = true;
  return round_;
}

void ReferenceNetwork::Checkpoint(std::ostream& out) const {
  if (!mid_run_ && !finished_) {
    throw SnapshotError(
        "ReferenceNetwork::Checkpoint: engine is not at a round boundary "
        "(pause with RunUntil or let a run finish first)");
  }
  const int n = graph_.NumNodes();
  SnapshotData snap;
  snap.engine_kind = SnapshotEngineKind::kReferenceNetwork;
  snap.digest_messages = digest_messages_;
  snap.finished = finished_;
  snap.batch = 1;
  snap.round = round_;
  snap.n = n;
  snap.m = graph_.NumEdges();
  snap.graph_hash = GraphHash(graph_);
  snap.ids_hash = IdsHash(ids_);
  snap.edges.reserve(static_cast<size_t>(snap.m));
  graph_.ForEachEdge(
      [&](int64_t, int u, int v) { snap.edges.emplace_back(u, v); });
  snap.ids = ids_;
  snap.instances.resize(1);
  SnapshotData::Instance& inst = snap.instances[0];
  inst.messages_delivered = messages_delivered_;
  inst.rounds_completed = finished_ ? round_ : 0;
  inst.rounds.resize(round_stats_.size());
  for (size_t r = 0; r < round_stats_.size(); ++r) {
    inst.rounds[r] = {round_stats_[r], round_msg_acc_[r], round_digests_[r]};
  }
  inst.halted = halted_;
  inst.state_stride = static_cast<uint32_t>(state_stride_);
  inst.state = state_;  // external-indexed already
  // Canonical per-node wake rounds (halted -> 0, unscheduled live ->
  // "awake at the boundary"), as in BuildSoloSnapshot.
  inst.wake.resize(n);
  for (int v = 0; v < n; ++v) {
    inst.wake[v] = halted_[v] ? 0
                   : (!scheduled_ || wake_round_.empty()) ? round_
                                                          : wake_round_[v];
  }
  // The naive engine has no epoch stamps; a boundary inbox holds exactly
  // last round's sends (everything else was cleared), so any non-zero slot
  // is deliverable — the same canonical set the stamped engines record.
  // Finished runs record none, as in BuildSoloSnapshot.
  if (!finished_) {
    for (int v = 0; v < n; ++v) {
      const int deg = graph_.Degree(v);
      for (int p = 0; p < deg; ++p) {
        const Message& m = RecvAt(v, p);
        if (m.size != 0 || m.word0 != 0 || m.word1 != 0) {
          inst.deliverable.push_back({v, p, m.word0, m.word1, m.size});
        }
      }
    }
  }
  WriteSnapshot(out, snap);
}

void ReferenceNetwork::Resume(std::istream& in) {
  SnapshotData snap = ReadSnapshot(in);
  internal::ValidateForEngine(snap, graph_, ids_, /*batch=*/1,
                              digest_messages_, "ReferenceNetwork");
  pending_resume_ = std::make_unique<SnapshotData>(std::move(snap));
  mid_run_ = false;
  finished_ = false;
}

}  // namespace treelocal::local
