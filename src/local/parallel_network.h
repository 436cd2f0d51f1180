#ifndef TREELOCAL_LOCAL_PARALLEL_NETWORK_H_
#define TREELOCAL_LOCAL_PARALLEL_NETWORK_H_

#include "src/local/network.h"

namespace treelocal::local {

// The sharded solo engine's former name, kept as an alias for callers that
// still spell it: Network(graph, ids, num_threads) is the same engine.
using ParallelNetwork = Network;

}  // namespace treelocal::local

#endif  // TREELOCAL_LOCAL_PARALLEL_NETWORK_H_
