// treelocald: the resident solver daemon. Admits graphs once, keeps them
// resident, and coalesces concurrent solve requests into batched engine
// passes (see src/serve/). Speaks the TLD1 length-prefixed binary protocol
// on a localhost TCP port.
//
//   treelocald [--port P] [--threads T] [--max-batch B] [--slice R]
//              [--max-graphs G] [--max-graph-bytes BYTES]
//
// --port 0 (default) picks an ephemeral port and prints it; a wrapping
// script can parse the "listening on" line. Stops on SIGINT/SIGTERM or a
// client kShutdown request, draining in-flight work either way.

#include <csignal>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <thread>

#include "src/serve/server.h"
#include "src/support/thread_pool.h"
#include "tools/flag_parse.h"

namespace {

[[noreturn]] void Usage(const std::string& err) {
  if (!err.empty()) std::cerr << "error: " << err << "\n";
  std::cerr << "usage: treelocald [--port P] [--threads T] [--max-batch B] "
               "[--slice R] [--max-graphs G] [--max-graph-bytes BYTES]\n"
               "  --max-graphs / --max-graph-bytes bound resident graphs "
               "(0 = unlimited); idle\n  graphs are evicted LRU-first, and a "
               "registration that still cannot fit is\n  answered "
               "kRejected.\n";
  std::exit(err.empty() ? 0 : 2);
}

}  // namespace

int main(int argc, char** argv) {
  using treelocal::tools::kIntMax;
  using treelocal::tools::ParseInt;
  constexpr int64_t kSizeMax = std::numeric_limits<int64_t>::max();
  treelocal::serve::Server::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto need = [&](int& idx) -> std::string {
      if (idx + 1 >= argc) Usage("missing value for " + a);
      return argv[++idx];
    };
    if (a == "--port") {
      opt.port = static_cast<int>(ParseInt(need(i), a, 0, 65535, Usage));
    } else if (a == "--threads") {
      opt.engine_threads = static_cast<int>(ParseInt(
          need(i), a, 1, treelocal::support::ThreadPool::kMaxThreads, Usage));
    } else if (a == "--max-batch") {
      opt.max_batch =
          static_cast<int>(ParseInt(need(i), a, 1, kIntMax, Usage));
    } else if (a == "--slice") {
      opt.slice_rounds =
          static_cast<int>(ParseInt(need(i), a, 1, kIntMax, Usage));
    } else if (a == "--max-graphs") {
      opt.max_graphs =
          static_cast<size_t>(ParseInt(need(i), a, 0, kSizeMax, Usage));
    } else if (a == "--max-graph-bytes") {
      opt.max_graph_bytes =
          static_cast<size_t>(ParseInt(need(i), a, 0, kSizeMax, Usage));
    } else if (a == "--help" || a == "-h") {
      Usage("");
    } else {
      Usage("unknown flag '" + a + "'");
    }
  }

  // Route SIGINT/SIGTERM to a dedicated sigwait thread so shutdown runs on
  // a normal stack instead of inside a signal handler.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  treelocal::serve::Server server(opt);
  std::string error;
  if (!server.Start(&error)) {
    std::cerr << "treelocald: " << error << "\n";
    return 1;
  }
  std::cout << "treelocald listening on 127.0.0.1:" << server.port()
            << " (threads=" << opt.engine_threads
            << " max-batch=" << opt.max_batch << " slice=" << opt.slice_rounds
            << ")" << std::endl;

  std::thread signal_thread([&] {
    int sig = 0;
    sigwait(&sigs, &sig);
    server.Stop();
  });

  const bool remote = server.Wait();
  // Wake the sigwait (no-op if a real signal already did) so the thread can
  // be joined before the server leaves scope.
  kill(getpid(), SIGTERM);
  signal_thread.join();
  server.Stop();
  std::cout << "treelocald: " << (remote ? "shutdown requested" : "stopped")
            << std::endl;
  return 0;
}
