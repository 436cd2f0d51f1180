#include "src/problems/edge_coloring.h"

#include <algorithm>

namespace treelocal {

namespace {

// Sorts `v` in place; true iff no value repeats.
bool AllDistinct(std::vector<int64_t>& v) {
  std::sort(v.begin(), v.end());
  return std::adjacent_find(v.begin(), v.end()) == v.end();
}

}  // namespace

bool EdgeColoringProblem::NodeConfigOk(std::span<const Label> labels) const {
  int64_t p = 0;
  for (Label l : labels) {
    if (IsPair(l)) ++p;
    else if (l != kD) return false;
  }
  thread_local std::vector<int64_t> colors;
  colors.clear();
  for (Label l : labels) {
    if (!IsPair(l)) continue;
    int64_t a = DegreePart(l), b = ColorPart(l);
    if (a < 1 || b < 1) return false;
    if (mode_ == Mode::kEdgeDegreePlusOne && a > p) return false;
    if (mode_ == Mode::kTwoDeltaMinusOne && b > 2 * int64_t{delta_} - 1) {
      return false;
    }
    colors.push_back(b);
  }
  return AllDistinct(colors);  // color parts distinct
}

bool EdgeColoringProblem::EdgeConfigOk(std::span<const Label> labels,
                                       int rank) const {
  if (static_cast<int>(labels.size()) != rank) return false;
  switch (rank) {
    case 0:
      return true;
    case 1:
      return labels[0] == kD;
    case 2: {
      if (!IsPair(labels[0]) || !IsPair(labels[1])) return false;
      int64_t a1 = DegreePart(labels[0]), b1 = ColorPart(labels[0]);
      int64_t a2 = DegreePart(labels[1]), b2 = ColorPart(labels[1]);
      if (b1 != b2) return false;
      if (mode_ == Mode::kEdgeDegreePlusOne) return a1 + a2 >= b1 + 1;
      return true;  // 2Delta-1 bound enforced at the nodes
    }
    default:
      return false;
  }
}

std::string EdgeColoringProblem::LabelToString(Label l) const {
  if (l == kD) return "D";
  if (l == kUnsetLabel) return "<unset>";
  return "(" + std::to_string(DegreePart(l)) + "," +
         std::to_string(ColorPart(l)) + ")";
}

int EdgeColoringProblem::AppendUsedColorsAt(
    const Graph& g, int v, const HalfEdgeLabeling& h,
    std::vector<int64_t>& out) const {
  int appended = 0;
  for (int e : g.IncidentEdges(v)) {
    Label l = h.Get(e, v);
    if (l != kUnsetLabel && IsPair(l)) {
      out.push_back(ColorPart(l));
      ++appended;
    }
  }
  return appended;
}

void EdgeColoringProblem::SequentialAssignEdge(const Graph& g, int e,
                                               HalfEdgeLabeling& h) const {
  // This is the inner loop of every class sweep and star stage: one shared
  // buffer for both endpoints' used colors (the per-endpoint counts ride
  // along for the degree parts), reused per thread because the sweeps run
  // on engine shards.
  auto [v1, v2] = g.Endpoints(e);
  thread_local std::vector<int64_t> forbidden;
  forbidden.clear();
  int used1 = AppendUsedColorsAt(g, v1, h, forbidden);
  int used2 = AppendUsedColorsAt(g, v2, h, forbidden);
  // First-fit via chunked bitmask + countr_one first-zero scan
  // (FirstMissingColor) — the sort + linear walk this replaces was the
  // edge sweeps' per-edge O(deg log deg) inner loop.
  const int64_t c = FirstMissingColor(
      forbidden.data(), static_cast<int>(forbidden.size()));
  // Lemma 16: c <= |used1| + |used2| + 1, so with a_i = |used_i| + 1 the
  // edge constraint a1 + a2 >= c + 1 holds automatically.
  int64_t a1 = used1 + 1;
  int64_t a2 = used2 + 1;
  if (mode_ == Mode::kTwoDeltaMinusOne) {
    a1 = 1;
    a2 = 1;  // degree parts unused; bound b <= 2Delta-1 holds since
             // |used1|+|used2| <= 2Delta-2.
  }
  h.Set(e, v1, Pack(a1, c));
  h.Set(e, v2, Pack(a2, c));
}

std::vector<int64_t> EdgeColoringProblem::ExtractColors(
    const Graph& g, const HalfEdgeLabeling& h) {
  std::vector<int64_t> colors(g.NumEdges(), 0);
  for (int e = 0; e < g.NumEdges(); ++e) {
    Label l = h.GetSlot(e, 0);
    if (l != kUnsetLabel && IsPair(l)) colors[e] = ColorPart(l);
  }
  return colors;
}

bool EdgeColoringProblem::IsProperEdgeColoring(
    const Graph& g, const std::vector<int64_t>& colors) const {
  std::vector<int64_t> seen;
  for (int v = 0; v < g.NumNodes(); ++v) {
    seen.clear();
    for (int e : g.IncidentEdges(v)) seen.push_back(colors[e]);
    if (!AllDistinct(seen)) return false;
  }
  for (int e = 0; e < g.NumEdges(); ++e) {
    if (colors[e] < 1) return false;
    int64_t bound = (mode_ == Mode::kEdgeDegreePlusOne)
                        ? g.EdgeDegree(e) + 1
                        : 2 * int64_t{delta_} - 1;
    if (colors[e] > bound) return false;
  }
  return true;
}

}  // namespace treelocal
