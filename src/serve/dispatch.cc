#include "src/serve/dispatch.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

#include "src/core/decomposition.h"
#include "src/core/rake_compress.h"
#include "src/core/transform_edge.h"
#include "src/core/transform_node.h"
#include "src/local/network.h"
#include "src/problems/coloring.h"
#include "src/problems/edge_coloring.h"
#include "src/problems/matching.h"
#include "src/problems/mis.h"
#include "src/support/digest.h"

namespace treelocal::serve {
namespace {

// The digest a solo engine would report for this trajectory: the chain over
// per-round (active, sent) with content accumulators off. This is exactly
// how the engines fold round_digests, so a daemon response is comparable
// against Network::last_digest() or a transcript_verify replay.
uint64_t FoldDigest(const std::vector<local::RoundStats>& stats) {
  uint64_t d = support::kDigestSeed;
  for (const auto& rs : stats) {
    d = support::ChainDigest(d, rs.active_nodes, rs.messages_sent, 0);
  }
  return d;
}

// Solo-run engine budget for rake-compress (the convention the tests and
// transcript_verify use: double the Lemma 9 bound plus slack, times 3
// rounds per iteration).
int RakeCompressBudget(int64_t n, int k) {
  return 3 * (2 * RakeCompressIterationBound(n, k) + 8);
}

std::unique_ptr<NodeProblem> MakeNodeProblem(ProblemId id, int max_degree) {
  switch (id) {
    case ProblemId::kColoringDeltaPlusOne:
      return std::make_unique<ColoringProblem>(
          ColoringProblem::Mode::kDeltaPlusOne, max_degree);
    case ProblemId::kColoringDegPlusOne:
      return std::make_unique<ColoringProblem>(
          ColoringProblem::Mode::kDegPlusOne, max_degree);
    case ProblemId::kMis:
      return std::make_unique<MisProblem>();
    default:
      return nullptr;
  }
}

std::unique_ptr<EdgeProblem> MakeEdgeProblem(ProblemId id, int max_degree) {
  switch (id) {
    case ProblemId::kEdgeColoringTwoDeltaMinusOne:
      return std::make_unique<EdgeColoringProblem>(
          EdgeColoringProblem::Mode::kTwoDeltaMinusOne, max_degree);
    case ProblemId::kEdgeColoringEdgeDegreePlusOne:
      return std::make_unique<EdgeColoringProblem>(
          EdgeColoringProblem::Mode::kEdgeDegreePlusOne, max_degree);
    case ProblemId::kMatching:
      return std::make_unique<MatchingProblem>();
    default:
      return nullptr;
  }
}

}  // namespace

struct Dispatcher::Ticket {
  uint64_t id = 0;
  // Owning: released at the terminal transition, so the registry's
  // idle-LRU eviction sees a graph as busy exactly while tickets against
  // it are queued or running.
  std::shared_ptr<const ResidentGraph> graph;
  SolveSpec spec;
  // Terminal transitions happen under the dispatcher mutex (Finish); the
  // atomics let slice-boundary checks and Fetch snapshots read without it.
  std::atomic<TicketState> state{TicketState::kQueued};
  std::atomic<bool> cancel{false};
  SolveResult result;  // written in Finish before the state store
  std::string why;
};

Dispatcher::Dispatcher(const Registry* registry, const Options& options)
    : registry_(registry), options_(options) {
  worker_ = std::thread([this] { WorkerLoop(); });
}

Dispatcher::~Dispatcher() { Stop(); }

Status Dispatcher::Submit(std::shared_ptr<const ResidentGraph> graph,
                          const SolveSpec& spec, uint64_t* ticket,
                          std::string* error) {
  if (spec.max_rounds < 0) {
    *error = "negative round budget";
    return Status::kBadRequest;
  }
  switch (spec.kind) {
    case SolveKind::kRakeCompress:
    case SolveKind::kThm12Node:
      if (!graph->is_forest) {
        *error = "rake-compress requires a forest";
        return Status::kBadRequest;
      }
      if (spec.k < 2) {
        *error = "rake-compress requires k >= 2";
        return Status::kBadRequest;
      }
      if (spec.kind == SolveKind::kThm12Node &&
          MakeNodeProblem(spec.problem, 1) == nullptr) {
        *error = "thm12 requires a node problem";
        return Status::kBadRequest;
      }
      break;
    case SolveKind::kThm15Edge:
    case SolveKind::kDecomposition:
      if (spec.a < 1) {
        *error = "arboricity bound must be >= 1";
        return Status::kBadRequest;
      }
      if (spec.k < 5 * spec.a) {
        *error = "decomposition requires k >= 5a";
        return Status::kBadRequest;
      }
      if (spec.kind == SolveKind::kThm15Edge &&
          MakeEdgeProblem(spec.problem, 1) == nullptr) {
        *error = "thm15 requires an edge problem";
        return Status::kBadRequest;
      }
      break;
  }

  auto t = std::make_shared<Ticket>();
  t->graph = std::move(graph);
  t->spec = spec;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      *error = "daemon is shutting down";
      return Status::kShuttingDown;
    }
    if (queue_.size() >= static_cast<size_t>(std::max(0, options_.max_queue))) {
      // Bounded admission: reject rather than enqueue without limit. The
      // depth in the message is the retry signal — the client should back
      // off until a Fetch/Stats shows the queue draining.
      ++rejected_;
      *error = "admission queue full (" + std::to_string(queue_.size()) +
               " queued, cap " + std::to_string(options_.max_queue) +
               "); retry after the queue drains";
      return Status::kRejected;
    }
    t->id = next_ticket_++;
    tickets_.emplace(t->id, t);
    queue_.push_back(t);
    ++submitted_;
    max_queue_depth_ = std::max(max_queue_depth_, (uint64_t)queue_.size());
  }
  cv_work_.notify_one();
  *ticket = t->id;
  return Status::kOk;
}

bool Dispatcher::Fetch(uint64_t ticket, bool block, TicketState* state,
                       SolveResult* result, std::string* why) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = tickets_.find(ticket);
  if (it == tickets_.end()) return false;
  TicketPtr t = it->second;
  if (block) {
    cv_done_.wait(lock, [&] {
      return t->state.load() >= TicketState::kDone || stopping_;
    });
  }
  *state = t->state.load();
  if (*state == TicketState::kDone) *result = t->result;
  if (*state == TicketState::kFailed) *why = t->why;
  return true;
}

bool Dispatcher::Cancel(uint64_t ticket, TicketState* state) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = tickets_.find(ticket);
  if (it == tickets_.end()) return false;
  TicketPtr t = it->second;
  t->cancel.store(true);
  if (t->state.load() == TicketState::kQueued) {
    // Cancel-before-start completes immediately and frees the queue slot.
    queue_.erase(std::remove(queue_.begin(), queue_.end(), t), queue_.end());
    t->graph.reset();
    t->state.store(TicketState::kCancelled);
    ++cancelled_;
    cv_done_.notify_all();
  }
  *state = t->state.load();
  return true;
}

void Dispatcher::FillStats(ServerStats* stats) const {
  std::lock_guard<std::mutex> lock(mu_);
  stats->requests = submitted_;
  stats->completed = completed_;
  stats->failed = failed_;
  stats->cancelled = cancelled_;
  stats->rejected = rejected_;
  stats->batches = batches_;
  stats->batched_requests = batched_requests_;
  stats->max_batch = max_batch_seen_;
  stats->queue_depth = queue_.size();
  stats->max_queue_depth = max_queue_depth_;
  stats->inflight = inflight_;
  stats->engine_rounds = engine_rounds_;
  stats->engine_messages = engine_messages_;
}

void Dispatcher::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && !worker_.joinable()) return;
    stopping_ = true;
    for (const TicketPtr& t : queue_) {
      t->cancel.store(true);
      t->graph.reset();
      t->state.store(TicketState::kCancelled);
      ++cancelled_;
    }
    queue_.clear();
  }
  cv_work_.notify_all();
  cv_done_.notify_all();
  if (worker_.joinable()) worker_.join();
}

void Dispatcher::Finish(const TicketPtr& t, TicketState state,
                        const SolveResult& res, const std::string& why) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    t->result = res;
    t->why = why;
    // Drop the graph reference before the terminal store becomes visible:
    // a Fetch that observed the terminal state must find the graph already
    // idle (evictable) in the registry.
    t->graph.reset();
    t->state.store(state);
    --inflight_;
    switch (state) {
      case TicketState::kDone: ++completed_; break;
      case TicketState::kFailed: ++failed_; break;
      case TicketState::kCancelled: ++cancelled_; break;
      default: break;
    }
  }
  cv_done_.notify_all();
}

std::vector<Dispatcher::TicketPtr> Dispatcher::CollectBatch(TicketPtr head) {
  // Called with mu_ held. Sweeps the queue for requests the head's engine
  // pass can also serve.
  // Keep an owning copy of the head: push_back below may reallocate
  // `members`, so a reference into it would dangle mid-sweep.
  const TicketPtr h = head;
  std::vector<TicketPtr> members{std::move(head)};
  const bool coalescable = h->spec.kind == SolveKind::kRakeCompress ||
                           h->spec.kind == SolveKind::kThm12Node;
  if (coalescable) {
    for (auto it = queue_.begin();
         it != queue_.end() &&
         members.size() < static_cast<size_t>(options_.max_batch);) {
      const TicketPtr& c = *it;
      const bool match =
          c->graph == h->graph && c->spec.kind == h->spec.kind &&
          (h->spec.kind != SolveKind::kThm12Node ||
           c->spec.problem == h->spec.problem) &&
          !c->cancel.load();
      if (match) {
        members.push_back(c);
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const TicketPtr& t : members) t->state.store(TicketState::kRunning);
  inflight_ += members.size();
  ++batches_;
  batched_requests_ += members.size();
  max_batch_seen_ = std::max(max_batch_seen_, (uint64_t)members.size());
  return members;
}

void Dispatcher::WorkerLoop() {
  for (;;) {
    TicketPtr head;
    std::vector<TicketPtr> members;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      head = queue_.front();
      queue_.pop_front();
      if (head->cancel.load()) {
        head->graph.reset();
        head->state.store(TicketState::kCancelled);
        ++cancelled_;
        cv_done_.notify_all();
        continue;
      }
      members = CollectBatch(std::move(head));
    }
    switch (members.front()->spec.kind) {
      case SolveKind::kRakeCompress:
        RunRakeCompressBatchPass(members);
        break;
      case SolveKind::kThm12Node:
        RunThm12BatchPass(members);
        break;
      default:
        RunSolo(members.front());
        break;
    }
  }
}

void Dispatcher::RunRakeCompressBatchPass(
    const std::vector<TicketPtr>& members) {
  // A member's Finish releases its own graph reference mid-pass (cancel at
  // a slice boundary), so the pass holds its own.
  const std::shared_ptr<const ResidentGraph> resident =
      members.front()->graph;
  const ResidentGraph& rg = *resident;
  const int64_t n = rg.graph.NumNodes();

  // Canonical-k dedup: members whose parameters provably produce identical
  // transcripts share one engine run. Groups run in first-seen order.
  std::vector<int> ks(members.size());
  std::vector<int> budgets(members.size());
  for (size_t i = 0; i < members.size(); ++i) {
    const SolveSpec& spec = members[i]->spec;
    ks[i] = spec.k;
    budgets[i] = spec.max_rounds > 0 ? spec.max_rounds
                                     : RakeCompressBudget(n, spec.k);
  }
  const CanonicalKGroups groups = GroupByCanonicalK(ks, rg.max_degree);

  std::vector<char> terminal(members.size(), 0);
  const auto finish = [&](size_t i, TicketState state, const SolveResult& res,
                          const std::string& why) {
    terminal[i] = 1;
    Finish(members[i], state, res, why);
  };
  const auto over_budget = [&](size_t i) {
    return "round budget exceeded (" + std::to_string(budgets[i]) +
           " rounds)";
  };
  // Slice-boundary sweep over the whole pass, so a cancel lands at the
  // next boundary whichever group its member waits in. Returns whether
  // group g still has a live member.
  const auto sweep_cancels = [&](size_t g) {
    bool live = false;
    for (size_t i = 0; i < members.size(); ++i) {
      if (terminal[i]) continue;
      if (members[i]->cancel.load()) {
        finish(i, TicketState::kCancelled, {}, "");
        continue;
      }
      live |= groups.slot[i] == g;
    }
    return live;
  };

  local::NetworkOptions nopt;
  nopt.relabel = true;
  nopt.fault = options_.fault;
  std::unique_ptr<local::Network> net;
  try {
    net = std::make_unique<local::Network>(rg.graph, rg.ids,
                                           options_.engine_threads, nopt);
  } catch (const std::exception& e) {
    for (size_t i = 0; i < members.size(); ++i) {
      if (!terminal[i]) finish(i, TicketState::kFailed, {}, e.what());
    }
    return;
  }

  for (size_t g = 0; g < groups.unique.size(); ++g) {
    if (!sweep_cancels(g)) continue;  // every member terminal: skip the run
    const auto live_in_group = [&](size_t i) {
      return !terminal[i] && groups.slot[i] == g;
    };
    int group_budget = 1;
    for (size_t i = 0; i < members.size(); ++i) {
      if (live_in_group(i)) group_budget = std::max(group_budget, budgets[i]);
    }
    bool ran = false, overran = false, threw = false;
    std::string error;
    try {
      const auto alg = MakeRakeCompressAlgorithm(rg.graph, groups.unique[g]);
      ran = true;
      int pause = 0;
      for (;;) {
        pause += options_.slice_rounds;
        net->RunUntil(*alg, group_budget, pause);
        if (net->finished()) break;
        sweep_cancels(g);
        bool live = false;
        for (size_t i = 0; i < members.size(); ++i) {
          if (!live_in_group(i)) continue;
          if (pause > budgets[i]) {
            finish(i, TicketState::kFailed, {}, over_budget(i));
          } else {
            live = true;
          }
        }
        if (!live) {
          net->Abandon();  // every member dead: stop this run mid-way
          break;
        }
      }
    } catch (const local::MaxRoundsExceededError&) {
      overran = true;
    } catch (const std::exception& e) {
      threw = true;
      error = e.what();
    }
    const int rounds = ran ? static_cast<int>(net->round_stats().size()) : 0;
    if (ran) {
      // Counted before any member of the group finishes, as in RunSolo: a
      // client that has fetched its result must also see the run in Stats.
      std::lock_guard<std::mutex> lock(mu_);
      engine_rounds_ += (uint64_t)rounds;
      engine_messages_ += (uint64_t)net->messages_delivered();
    }
    for (size_t i = 0; i < members.size(); ++i) {
      if (!live_in_group(i)) continue;
      if (threw) {
        finish(i, TicketState::kFailed, {}, error);
        continue;
      }
      if (overran || rounds > budgets[i]) {
        finish(i, TicketState::kFailed, {}, over_budget(i));
        continue;
      }
      SolveResult res;
      res.kind = SolveKind::kRakeCompress;
      res.valid = 1;
      res.engine_rounds = (uint32_t)rounds;
      res.total_rounds = (uint32_t)rounds;
      res.messages = net->messages_delivered();
      res.digest = net->last_digest();
      res.iterations = (uint32_t)(rounds / 3);
      finish(i, TicketState::kDone, res, "");
    }
  }
}

void Dispatcher::RunThm12BatchPass(const std::vector<TicketPtr>& members) {
  const std::shared_ptr<const ResidentGraph> resident =
      members.front()->graph;
  const ResidentGraph& rg = *resident;
  auto fail_all = [&](const std::string& why) {
    for (const TicketPtr& t : members) {
      Finish(t, TicketState::kFailed, {}, why);
    }
  };
  auto problem = MakeNodeProblem(members.front()->spec.problem,
                                 std::max(1, rg.max_degree));
  std::vector<int> ks(members.size());
  for (size_t i = 0; i < members.size(); ++i) ks[i] = members[i]->spec.k;
  try {
    std::vector<Thm12Result> results = SolveNodeProblemOnTreeBatch(
        *problem, rg.graph, rg.ids, rg.id_space, ks, options_.engine_threads);
    // The batch solve ran each canonical k once; count that work once.
    const CanonicalKGroups groups = GroupByCanonicalK(ks, rg.max_degree);
    std::vector<char> counted(groups.unique.size(), 0);
    uint64_t pass_rounds = 0, pass_messages = 0;
    for (size_t i = 0; i < members.size(); ++i) {
      if (!counted[groups.slot[i]]) {
        counted[groups.slot[i]] = 1;
        pass_rounds += (uint64_t)results[i].rounds_total;
        pass_messages += (uint64_t)results[i].engine_messages;
      }
    }
    {
      // Counted before any member finishes, as in RunSolo: a client that
      // has fetched its result must also see the pass in Stats.
      std::lock_guard<std::mutex> lock(mu_);
      engine_rounds_ += pass_rounds;
      engine_messages_ += pass_messages;
    }
    for (size_t i = 0; i < members.size(); ++i) {
      const Thm12Result& r = results[i];
      if (members[i]->cancel.load()) {
        Finish(members[i], TicketState::kCancelled, {}, "");
        continue;
      }
      if (members[i]->spec.max_rounds > 0 &&
          r.rake_compress.engine_rounds > members[i]->spec.max_rounds) {
        Finish(members[i], TicketState::kFailed, {},
               "round budget exceeded (" +
                   std::to_string(members[i]->spec.max_rounds) + " rounds)");
        continue;
      }
      SolveResult res;
      res.kind = SolveKind::kThm12Node;
      res.valid = r.valid ? 1 : 0;
      res.engine_rounds = (uint32_t)r.rake_compress.engine_rounds;
      res.total_rounds = (uint32_t)r.rounds_total;
      res.messages = r.engine_messages;
      res.digest = FoldDigest(r.rake_compress.round_stats);
      res.iterations = (uint32_t)r.rake_compress.num_iterations;
      Finish(members[i], TicketState::kDone, res, "");
    }
  } catch (const std::exception& e) {
    fail_all(e.what());
  }
}

void Dispatcher::RunSolo(const TicketPtr& t) {
  const std::shared_ptr<const ResidentGraph> resident = t->graph;
  const ResidentGraph& rg = *resident;
  const SolveSpec& spec = t->spec;
  try {
    // At the daemon's engine thread count, like the coalesced passes.
    local::Network net(rg.graph, rg.ids, options_.engine_threads);
    SolveResult res;
    if (spec.kind == SolveKind::kDecomposition) {
      DecompositionResult dr =
          RunDecomposition(net, spec.a, 2 * spec.a, spec.k);
      res.kind = SolveKind::kDecomposition;
      res.valid = 1;
      res.engine_rounds = (uint32_t)dr.engine_rounds;
      res.total_rounds = (uint32_t)dr.engine_rounds;
      res.messages = dr.messages;
      res.digest = FoldDigest(dr.round_stats);
      res.iterations = (uint32_t)dr.num_layers;
    } else {
      auto problem =
          MakeEdgeProblem(spec.problem, std::max(1, rg.max_degree));
      Thm15Result r = SolveEdgeProblemBoundedArboricity(
          *problem, net, rg.id_space, spec.a, spec.k);
      res.kind = SolveKind::kThm15Edge;
      res.valid = r.valid ? 1 : 0;
      res.engine_rounds = (uint32_t)r.rounds_decomposition;
      res.total_rounds = (uint32_t)r.rounds_total;
      res.messages = r.engine_messages;
      res.digest = FoldDigest(r.decomposition.round_stats);
      res.iterations = (uint32_t)r.decomposition.num_layers;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      engine_rounds_ += res.engine_rounds;
      engine_messages_ += (uint64_t)res.messages;
    }
    if (spec.max_rounds > 0 &&
        res.engine_rounds > (uint32_t)spec.max_rounds) {
      Finish(t, TicketState::kFailed, {},
             "round budget exceeded (" + std::to_string(spec.max_rounds) +
                 " rounds)");
      return;
    }
    Finish(t, TicketState::kDone, res, "");
  } catch (const std::exception& e) {
    Finish(t, TicketState::kFailed, {}, e.what());
  }
}

}  // namespace treelocal::serve
