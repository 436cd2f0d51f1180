// Command-line client for treelocald. Subcommands:
//
//   treelocal_client ping --port P
//       Round-trip a ping; prints the server protocol version.
//
//   treelocal_client solve --port P [--family F] [--n N] [--seed S]
//       [--kind rake|thm12|thm15|decomp] [--problem NAME] [--k K] [--a A]
//       [--max-rounds M] [--cancel]
//       Generate the named tree family (same generator and iota id
//       convention as `transcript_verify record`, so the printed digest is
//       directly comparable to a recorded solo run), register it, solve,
//       and print one result line:
//         result kind=... state=... rounds=... messages=... digest=0x...
//       With --cancel, cancels the ticket right after submitting and
//       prints whatever terminal state the ticket reached.
//
//   treelocal_client stats --port P
//       Print the daemon's counters, one "key=value" per line.
//
//   treelocal_client shutdown --port P
//       Ask the daemon to exit.
//
// Exit status: 0 on success (for solve: ticket reached kDone, or any
// terminal state under --cancel), non-zero otherwise — the CI smoke test
// leans on this.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/serve/client.h"
#include "tools/flag_parse.h"

namespace {

using treelocal::serve::Client;
using treelocal::serve::ProblemId;
using treelocal::serve::ServerStats;
using treelocal::serve::SolveKind;
using treelocal::serve::SolveResult;
using treelocal::serve::SolveSpec;
using treelocal::serve::TicketState;
using treelocal::serve::TicketStateName;
using treelocal::tools::kIntMax;
using treelocal::tools::ParseInt;
using treelocal::tools::ParseU64;

[[noreturn]] void Usage(const std::string& err) {
  if (!err.empty()) std::cerr << "error: " << err << "\n";
  std::cerr << "usage: treelocal_client <ping|solve|stats|shutdown> --port P "
               "[options]\n"
               "  solve options: [--family F] [--n N] [--seed S]\n"
               "    [--kind rake|thm12|thm15|decomp] [--problem NAME]\n"
               "    [--k K] [--a A] [--max-rounds M] [--cancel]\n"
               "  problems: coloring | deg-coloring | mis | edge-coloring |\n"
               "    edge-deg-coloring | matching\n";
  std::exit(err.empty() ? 0 : 2);
}

treelocal::TreeFamily FamilyByName(const std::string& name) {
  for (treelocal::TreeFamily f : treelocal::AllTreeFamilies()) {
    if (treelocal::TreeFamilyName(f) == name) return f;
  }
  Usage("unknown tree family '" + name + "'");
}

SolveKind KindByName(const std::string& name) {
  if (name == "rake") return SolveKind::kRakeCompress;
  if (name == "thm12") return SolveKind::kThm12Node;
  if (name == "thm15") return SolveKind::kThm15Edge;
  if (name == "decomp") return SolveKind::kDecomposition;
  Usage("unknown kind '" + name + "'");
}

ProblemId ProblemByName(const std::string& name) {
  if (name == "coloring") return ProblemId::kColoringDeltaPlusOne;
  if (name == "deg-coloring") return ProblemId::kColoringDegPlusOne;
  if (name == "mis") return ProblemId::kMis;
  if (name == "edge-coloring") return ProblemId::kEdgeColoringTwoDeltaMinusOne;
  if (name == "edge-deg-coloring") {
    return ProblemId::kEdgeColoringEdgeDegreePlusOne;
  }
  if (name == "matching") return ProblemId::kMatching;
  Usage("unknown problem '" + name + "'");
}

std::string Hex(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

const char* KindName(SolveKind k) {
  switch (k) {
    case SolveKind::kRakeCompress: return "rake";
    case SolveKind::kThm12Node: return "thm12";
    case SolveKind::kThm15Edge: return "thm15";
    case SolveKind::kDecomposition: return "decomp";
  }
  return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Usage("missing subcommand");
  const std::string cmd = argv[1];
  int port = 0;
  std::string family = "uniform";
  int n = 1 << 12;
  uint64_t seed = 1;
  SolveSpec spec;
  bool cancel = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto need = [&](int& idx) -> std::string {
      if (idx + 1 >= argc) Usage("missing value for " + a);
      return argv[++idx];
    };
    if (a == "--port") {
      port = static_cast<int>(ParseInt(need(i), a, 1, 65535, Usage));
    } else if (a == "--family") {
      family = need(i);
    } else if (a == "--n") {
      n = static_cast<int>(ParseInt(need(i), a, 1, kIntMax, Usage));
    } else if (a == "--seed") {
      seed = ParseU64(need(i), a, Usage);
    } else if (a == "--kind") {
      spec.kind = KindByName(need(i));
    } else if (a == "--problem") {
      spec.problem = ProblemByName(need(i));
    } else if (a == "--k") {
      spec.k = static_cast<int32_t>(ParseInt(need(i), a, 2, kIntMax, Usage));
    } else if (a == "--a") {
      spec.a = static_cast<int32_t>(ParseInt(need(i), a, 1, kIntMax, Usage));
    } else if (a == "--max-rounds") {
      spec.max_rounds =
          static_cast<int32_t>(ParseInt(need(i), a, 0, kIntMax, Usage));
    } else if (a == "--cancel") {
      cancel = true;
    } else {
      Usage("unknown flag '" + a + "'");
    }
  }
  if (port == 0) Usage("--port is required");

  // Pick defaults that satisfy the pipelines' validation when the user
  // asked for a theorem kind but left k at the rake-compress default.
  if ((spec.kind == SolveKind::kThm15Edge ||
       spec.kind == SolveKind::kDecomposition) &&
      spec.k < 5 * spec.a) {
    spec.k = 5 * spec.a;
  }
  if (spec.kind == SolveKind::kThm12Node &&
      spec.problem == ProblemId::kNone) {
    spec.problem = ProblemId::kColoringDeltaPlusOne;
  }
  if (spec.kind == SolveKind::kThm15Edge &&
      spec.problem == ProblemId::kNone) {
    spec.problem = ProblemId::kEdgeColoringTwoDeltaMinusOne;
  }

  Client client;
  std::string error;
  if (!client.Connect("127.0.0.1", port, &error)) {
    std::cerr << "treelocal_client: " << error << "\n";
    return 1;
  }

  if (cmd == "ping") {
    uint32_t version = 0;
    if (!client.Ping(&version, &error)) {
      std::cerr << "treelocal_client: " << error << "\n";
      return 1;
    }
    std::cout << "pong version=" << version << "\n";
    return 0;
  }

  if (cmd == "stats") {
    ServerStats s;
    if (!client.Stats(&s, &error)) {
      std::cerr << "treelocal_client: " << error << "\n";
      return 1;
    }
    std::cout << "graphs=" << s.graphs << "\nrequests=" << s.requests
              << "\ncompleted=" << s.completed << "\nfailed=" << s.failed
              << "\ncancelled=" << s.cancelled
              << "\nrejected=" << s.rejected << "\nevicted=" << s.evicted
              << "\nbatches=" << s.batches
              << "\nbatched_requests=" << s.batched_requests
              << "\nmax_batch=" << s.max_batch
              << "\nqueue_depth=" << s.queue_depth
              << "\nmax_queue_depth=" << s.max_queue_depth
              << "\ninflight=" << s.inflight
              << "\nengine_rounds=" << s.engine_rounds
              << "\nengine_messages=" << s.engine_messages
              << "\nprotocol_errors=" << s.protocol_errors
              << "\nuptime_micros=" << s.uptime_micros << "\n";
    return 0;
  }

  if (cmd == "shutdown") {
    if (!client.Shutdown(&error)) {
      std::cerr << "treelocal_client: " << error << "\n";
      return 1;
    }
    std::cout << "shutdown acknowledged\n";
    return 0;
  }

  if (cmd != "solve") Usage("unknown subcommand '" + cmd + "'");

  const treelocal::Graph g =
      treelocal::MakeTree(FamilyByName(family), n, seed);
  std::vector<int64_t> ids(g.NumNodes());
  std::iota(ids.begin(), ids.end(), 0);

  uint64_t key = 0;
  bool fresh = false;
  if (!client.RegisterGraph(g, ids, &key, &fresh, &error)) {
    std::cerr << "treelocal_client: " << error << "\n";
    return 1;
  }
  std::cout << "registered key=" << Hex(key) << " n=" << g.NumNodes()
            << " m=" << g.NumEdges() << " fresh=" << (fresh ? 1 : 0) << "\n";

  uint64_t ticket = 0;
  if (!client.Solve(key, spec, &ticket, &error)) {
    std::cerr << "treelocal_client: " << error << "\n";
    return 1;
  }

  if (cancel) {
    TicketState state;
    if (!client.Cancel(ticket, &state, &error)) {
      std::cerr << "treelocal_client: " << error << "\n";
      return 1;
    }
    // Cancel is best-effort: the ticket may already be running or done.
    // Wait for whatever terminal state it reaches.
    SolveResult result;
    std::string why;
    if (!client.Fetch(ticket, /*block=*/true, &state, &result, &why,
                      &error)) {
      std::cerr << "treelocal_client: " << error << "\n";
      return 1;
    }
    std::cout << "result kind=" << KindName(spec.kind)
              << " state=" << TicketStateName(state) << "\n";
    return 0;
  }

  TicketState state;
  SolveResult result;
  std::string why;
  if (!client.Fetch(ticket, /*block=*/true, &state, &result, &why, &error)) {
    std::cerr << "treelocal_client: " << error << "\n";
    return 1;
  }
  if (state != TicketState::kDone) {
    std::cerr << "treelocal_client: ticket " << TicketStateName(state)
              << (why.empty() ? "" : ": " + why) << "\n";
    return 1;
  }
  std::cout << "result kind=" << KindName(result.kind)
            << " state=done valid=" << int(result.valid)
            << " rounds=" << result.engine_rounds
            << " total_rounds=" << result.total_rounds
            << " messages=" << result.messages
            << " iterations=" << result.iterations
            << " digest=" << Hex(result.digest) << "\n";
  return 0;
}
