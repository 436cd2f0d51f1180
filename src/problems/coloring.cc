#include "src/problems/coloring.h"

namespace treelocal {

bool ColoringProblem::NodeConfigOk(std::span<const Label> labels) const {
  if (labels.empty()) return true;
  Label c = labels[0];
  for (Label l : labels) {
    if (l != c) return false;
  }
  if (c < 1) return false;
  int64_t bound = (mode_ == Mode::kDeltaPlusOne)
                      ? delta_ + 1
                      : static_cast<int64_t>(labels.size()) + 1;
  return c <= bound;
}

bool ColoringProblem::EdgeConfigOk(std::span<const Label> labels,
                                   int rank) const {
  if (static_cast<int>(labels.size()) != rank) return false;
  switch (rank) {
    case 0:
      return true;
    case 1:
      return labels[0] >= 1;
    case 2:
      return labels[0] >= 1 && labels[1] >= 1 && labels[0] != labels[1];
    default:
      return false;
  }
}

void ColoringProblem::SequentialAssign(const Graph& g, int v,
                                       HalfEdgeLabeling& h) const {
  // Reused per thread: the class sweeps call this on engine shards.
  thread_local std::vector<int64_t> forbidden;
  forbidden.clear();
  for (int e : g.IncidentEdges(v)) {
    int u = g.OtherEndpoint(e, v);
    Label l = h.Get(e, u);
    if (l != kUnsetLabel) forbidden.push_back(l);
  }
  // First-fit via chunked bitmask + countr_one first-zero scan instead of
  // sort + linear walk (FirstMissingColor): O(deg) with no comparison sort
  // in the class sweep's hottest per-node call.
  const int64_t c = FirstMissingColor(
      forbidden.data(), static_cast<int>(forbidden.size()));
  // |forbidden| <= deg(v), so c <= deg(v)+1 <= Delta+1: within both bounds.
  for (int e : g.IncidentEdges(v)) {
    if (h.Get(e, v) == kUnsetLabel) h.Set(e, v, c);
  }
}

std::vector<int64_t> ColoringProblem::ExtractColors(const Graph& g,
                                                    const HalfEdgeLabeling& h) {
  std::vector<int64_t> colors(g.NumNodes(), 0);
  for (int v = 0; v < g.NumNodes(); ++v) {
    for (int e : g.IncidentEdges(v)) {
      Label l = h.Get(e, v);
      if (l != kUnsetLabel) {
        colors[v] = l;
        break;
      }
    }
  }
  return colors;
}

bool ColoringProblem::IsProperlyColored(
    const Graph& g, const std::vector<int64_t>& colors) const {
  for (int e = 0; e < g.NumEdges(); ++e) {
    auto [u, v] = g.Endpoints(e);
    if (colors[u] == colors[v]) return false;
  }
  for (int v = 0; v < g.NumNodes(); ++v) {
    if (g.Degree(v) == 0) continue;
    int64_t bound =
        (mode_ == Mode::kDeltaPlusOne) ? delta_ + 1 : g.Degree(v) + 1;
    if (colors[v] < 1 || colors[v] > bound) return false;
  }
  return true;
}

}  // namespace treelocal
