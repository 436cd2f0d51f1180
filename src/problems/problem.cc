#include "src/problems/problem.h"

#include <algorithm>
#include <bit>
#include <sstream>
#include <vector>

namespace treelocal {

std::string Problem::LabelToString(Label l) const {
  if (l == kUnsetLabel) return "<unset>";
  return std::to_string(l);
}

bool Problem::ValidateGraph(const Graph& g, const HalfEdgeLabeling& h,
                            std::string* why) const {
  auto fail = [&](const std::string& msg) {
    if (why) *why = msg;
    return false;
  };
  for (int e = 0; e < g.NumEdges(); ++e) {
    Label a = h.GetSlot(e, 0), b = h.GetSlot(e, 1);
    if (a == kUnsetLabel || b == kUnsetLabel) {
      return fail("edge " + std::to_string(e) + " has unassigned half-edge");
    }
    Label cfg[2] = {a, b};
    if (!EdgeConfigOk({cfg, 2}, 2)) {
      return fail("edge " + std::to_string(e) + " config invalid: {" +
                  LabelToString(a) + "," + LabelToString(b) + "}");
    }
  }
  std::vector<Label> labels;  // reused across nodes
  for (int v = 0; v < g.NumNodes(); ++v) {
    labels.clear();
    for (int e : g.IncidentEdges(v)) labels.push_back(h.Get(e, v));
    if (!NodeConfigOkAt(g, v, labels)) {
      std::ostringstream os;
      os << "node " << v << " config invalid: {";
      for (size_t i = 0; i < labels.size(); ++i) {
        if (i) os << ",";
        os << LabelToString(labels[i]);
      }
      os << "}";
      return fail(os.str());
    }
  }
  if (why) why->clear();
  return true;
}

bool Problem::ValidateSemiGraph(const SemiGraph& s, const HalfEdgeLabeling& h,
                                std::string* why) const {
  auto fail = [&](const std::string& msg) {
    if (why) *why = msg;
    return false;
  };
  const Graph& g = s.host();
  for (int e = 0; e < g.NumEdges(); ++e) {
    if (!s.ContainsEdge(e)) continue;
    Label cfg[2];
    size_t present = 0;
    for (int slot = 0; slot < 2; ++slot) {
      if (!s.HalfPresent(e, slot)) continue;
      Label l = h.GetSlot(e, slot);
      if (l == kUnsetLabel) {
        return fail("semi-edge " + std::to_string(e) +
                    " has unassigned present half-edge");
      }
      cfg[present++] = l;
    }
    if (!EdgeConfigOk({cfg, present}, s.Rank(e))) {
      return fail("semi-edge " + std::to_string(e) + " config invalid");
    }
  }
  std::vector<Label> labels;  // reused across nodes
  for (int v = 0; v < g.NumNodes(); ++v) {
    if (!s.ContainsNode(v)) continue;
    labels.clear();
    for (int e : g.IncidentEdges(v)) {
      if (s.ContainsEdge(e) && s.HalfPresent(e, g.EndpointSlot(e, v))) {
        Label l = h.Get(e, v);
        if (l == kUnsetLabel) {
          return fail("semi-node " + std::to_string(v) +
                      " has unassigned half-edge");
        }
        labels.push_back(l);
      }
    }
    if (!NodeConfigOkAt(g, v, labels)) {
      return fail("semi-node " + std::to_string(v) + " config invalid");
    }
  }
  if (why) why->clear();
  return true;
}

void NodeProblem::CompleteNodes(const Graph& g, std::span<const int> nodes,
                                HalfEdgeLabeling& h) const {
  for (int v : nodes) SequentialAssign(g, v, h);
}

void EdgeProblem::CompleteEdges(const Graph& g, std::span<const int> edges,
                                HalfEdgeLabeling& h) const {
  for (int e : edges) SequentialAssignEdge(g, e, h);
}

int FirstMissingColor(const int64_t* forbidden, int count) {
  // First-fit never exceeds count+1 colors, so a mask of bits 0..count
  // (bit c-1 = "color c is forbidden") decides the answer; forbidden
  // values outside [1, count+1] cannot be the first free color's blocker.
  const int bits = count + 1;
  const int words = (bits + 63) / 64;
  uint64_t stack_mask[8];
  thread_local std::vector<uint64_t> heap_mask;
  uint64_t* mask;
  if (words <= 8) {
    mask = stack_mask;
    std::fill_n(mask, words, 0ull);
  } else {
    heap_mask.assign(words, 0ull);
    mask = heap_mask.data();
  }
  for (int i = 0; i < count; ++i) {
    const int64_t c = forbidden[i];
    if (c >= 1 && c <= bits) {
      mask[(c - 1) >> 6] |= 1ull << ((c - 1) & 63);
    }
  }
  for (int w = 0; w < words; ++w) {
    const int z = std::countr_one(mask[w]);
    // The last word's bits above `bits` are zero and only `count` bits can
    // be set in total, so a zero bit always exists at index <= count.
    if (z < 64) return w * 64 + z + 1;
  }
  return bits;  // unreachable: the mask has at most `count` of `bits` set
}

}  // namespace treelocal
