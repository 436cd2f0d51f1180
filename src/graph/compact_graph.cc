#include "src/graph/compact_graph.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <type_traits>

#include "src/support/digest.h"

namespace treelocal {

namespace {

constexpr size_t kHeaderBytes = 8 + 4 + 4 + 8 + 8 + 4 + 4 + 8 + 8 + 8;  // 64

size_t Pad8(size_t x) { return (x + 7) & ~size_t{7}; }

void AppendU32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}
void AppendU64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

[[noreturn]] void Fail(const std::string& msg) {
  throw CompactGraphError("invalid .cgr image: " + msg);
}
// Literal messages only: validation runs per node and per entry, so a check
// with a built message must test first and call Fail under `if (!ok)`.
void Require(bool ok, const char* msg) {
  if (!ok) Fail(msg);
}

// Minimal-length LEB128 of a non-negative value < 2^32.
void AppendVarint(std::string& out, uint32_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

}  // namespace

CompactGraph::~CompactGraph() {
  if (map_addr_ != nullptr) munmap(map_addr_, map_len_);
}

CompactGraph::CompactGraph(CompactGraph&& other) noexcept {
  *this = std::move(other);
}

CompactGraph& CompactGraph::operator=(CompactGraph&& other) noexcept {
  if (this == &other) return *this;
  if (map_addr_ != nullptr) munmap(map_addr_, map_len_);
  owned_ = std::move(other.owned_);
  map_addr_ = other.map_addr_;
  map_len_ = other.map_len_;
  other.map_addr_ = nullptr;
  other.map_len_ = 0;
  n_ = other.n_;
  m_ = other.m_;
  max_degree_ = other.max_degree_;
  num_hubs_ = other.num_hubs_;
  stream_bytes_ = other.stream_bytes_;
  wide_blocks_ = other.wide_blocks_;
  total_anchors_ = other.total_anchors_;
  // Section pointers alias the image; re-derive for the owned case (the
  // string's buffer may move with it), copy for the mapped case.
  if (!owned_.empty()) {
    data_ = reinterpret_cast<const unsigned char*>(owned_.data());
    size_ = owned_.size();
    const ptrdiff_t shift = data_ - other.data_;
    const auto move_ptr = [shift](auto*& p) {
      if (p != nullptr) {
        p = reinterpret_cast<std::remove_reference_t<decltype(p)>>(
            reinterpret_cast<const unsigned char*>(p) + shift);
      }
    };
    block_base_ = other.block_base_;
    wide_off_ = other.wide_off_;
    len8_ = other.len8_;
    eupper_base_ = other.eupper_base_;
    hubs_ = other.hubs_;
    anchors_ = other.anchors_;
    stream_ = other.stream_;
    move_ptr(block_base_);
    move_ptr(wide_off_);
    move_ptr(len8_);
    move_ptr(eupper_base_);
    move_ptr(hubs_);
    move_ptr(anchors_);
    move_ptr(stream_);
  } else {
    data_ = other.data_;
    size_ = other.size_;
    block_base_ = other.block_base_;
    wide_off_ = other.wide_off_;
    len8_ = other.len8_;
    eupper_base_ = other.eupper_base_;
    hubs_ = other.hubs_;
    anchors_ = other.anchors_;
    stream_ = other.stream_;
  }
  other.data_ = nullptr;
  other.size_ = 0;
  return *this;
}

// ---------------------------------------------------------------------------
// Parsing and validation
// ---------------------------------------------------------------------------

void CompactGraph::Parse(bool full_validation) {
  Require(size_ >= kHeaderBytes + 8, "shorter than header + footer");
  const unsigned char* p = data_;
  const auto read_u32 = [&p]() {
    uint32_t v;
    std::memcpy(&v, p, 4);
    p += 4;
    return v;
  };
  const auto read_u64 = [&p]() {
    uint64_t v;
    std::memcpy(&v, p, 8);
    p += 8;
    return v;
  };
  const uint64_t magic = read_u64();
  Require(magic == kMagic, "bad magic (not a .cgr file)");
  const uint32_t version = read_u32();
  if (version != kVersion) {
    throw CompactGraphError(".cgr version " + std::to_string(version) +
                            " unsupported (this build reads version " +
                            std::to_string(kVersion) + " only)");
  }
  const uint32_t flags = read_u32();
  Require(flags == 0, "unknown flag bits set");
  const int64_t n64 = static_cast<int64_t>(read_u64());
  const int64_t m64 = static_cast<int64_t>(read_u64());
  if (n64 < 0 || n64 > INT32_MAX) {
    Fail("node count " + std::to_string(n64) + " outside [0, 2^31)");
  }
  Require(m64 >= 0, "negative edge count");
  n_ = static_cast<int>(n64);
  m_ = m64;
  max_degree_ = static_cast<int32_t>(read_u32());
  num_hubs_ = read_u32();
  stream_bytes_ = read_u64();
  wide_blocks_ = read_u64();
  total_anchors_ = read_u64();
  Require(max_degree_ >= 0 && max_degree_ <= n_,
          "max_degree outside [0, n]");
  Require(num_hubs_ <= static_cast<uint32_t>(n_), "more hubs than nodes");

  const uint64_t nb = (static_cast<uint64_t>(n_) + 31) / 32;
  Require(wide_blocks_ <= nb, "more wide blocks than blocks");
  // Section bounds, division form so corrupt counts cannot overflow the
  // product before the check rejects them.
  const size_t body = size_ - 8;  // excludes the integrity footer
  size_t off = kHeaderBytes;
  const auto take = [&](uint64_t count, uint64_t elem_bytes,
                        const char* what) {
    if (elem_bytes != 0 && count > (body - off) / elem_bytes) {
      Fail(std::string(what) + " section larger than the remaining image");
    }
    const unsigned char* section = data_ + off;
    off = Pad8(off + count * elem_bytes);
    if (off > body) Fail(std::string(what) + " section padding overruns");
    return section;
  };
  block_base_ = reinterpret_cast<const uint64_t*>(take(nb, 8, "block_base"));
  wide_off_ =
      reinterpret_cast<const uint64_t*>(take(33 * wide_blocks_, 8, "wide_off"));
  len8_ = take(static_cast<uint64_t>(n_), 1, "len8");
  eupper_base_ =
      reinterpret_cast<const uint64_t*>(take(nb + 1, 8, "eupper_base"));
  hubs_ = reinterpret_cast<const HubEntry*>(
      take(num_hubs_, sizeof(HubEntry), "hub table"));
  anchors_ = reinterpret_cast<const Anchor*>(
      take(total_anchors_, sizeof(Anchor), "anchor table"));
  stream_ = take(stream_bytes_, 1, "stream");
  Require(off == body, "trailing bytes after the stream section");

  // Cheap structural bounds that keep every accessor inside the image,
  // validated even on the mmap fast path: index tables are O(n/32 + hubs)
  // to scan without touching the stream pages.
  uint64_t prev_end = 0;
  for (uint64_t b = 0; b < nb; ++b) {
    const uint64_t base = block_base_[b];
    if ((base & kWideBit) != 0) {
      const uint64_t w = base & ~kWideBit;
      Require(w < wide_blocks_, "wide-block index out of range");
      const uint64_t* wo = wide_off_ + 33 * w;
      Require(wo[0] == prev_end, "wide block offset breaks stream continuity");
      for (int j = 0; j < 33; ++j) {
        Require(wo[j] <= stream_bytes_, "wide offset past the stream");
        if (j > 0) Require(wo[j] >= wo[j - 1], "wide offsets not monotone");
      }
      prev_end = wo[32];
    } else {
      Require(base == prev_end, "block offset breaks stream continuity");
      uint64_t end = base;
      const uint64_t lo = 32 * b;
      const uint64_t hi = std::min<uint64_t>(lo + 32, n_);
      for (uint64_t v = lo; v < hi; ++v) {
        Require(len8_[v] != 255, "hub sentinel inside a narrow block");
        end += len8_[v];
      }
      Require(end <= stream_bytes_, "narrow block runs past the stream");
      prev_end = end;
    }
    Require(eupper_base_[b] <= static_cast<uint64_t>(m_),
            "eupper_base exceeds the edge count");
    if (b > 0) {
      Require(eupper_base_[b] >= eupper_base_[b - 1],
              "eupper_base not monotone");
    }
  }
  Require(n_ == 0 || prev_end == stream_bytes_,
          "blocks do not cover the whole stream");
  Require(eupper_base_[nb] == static_cast<uint64_t>(m_),
          "final eupper_base entry is not m");
  if (nb > 0) {
    Require(eupper_base_[0] == 0, "first eupper_base entry is not 0");
  }
  uint64_t anchor_cursor = 0;
  int32_t prev_hub = -1;
  for (uint32_t h = 0; h < num_hubs_; ++h) {
    const HubEntry& hub = hubs_[h];
    Require(hub.node > prev_hub, "hub table not sorted by node");
    Require(hub.node >= 0 && hub.node < n_, "hub node out of range");
    Require(len8_[hub.node] == 255, "hub table entry without the sentinel");
    Require(hub.degree >= 0 && hub.degree <= n_, "hub degree out of range");
    Require(hub.degree <= max_degree_, "hub degree exceeds max_degree");
    Require(hub.upper_count >= 0 && hub.upper_count <= hub.degree,
            "hub upper_count outside [0, degree]");
    Require(hub.anchor_count == (hub.degree > 0 ? (hub.degree - 1) / 64 : 0),
            "hub anchor_count disagrees with degree");
    Require(hub.anchor_start == static_cast<int64_t>(anchor_cursor),
            "hub anchors not contiguous");
    anchor_cursor += static_cast<uint64_t>(hub.anchor_count);
    prev_hub = hub.node;
  }
  Require(anchor_cursor == total_anchors_,
          "anchor table size disagrees with the hub table");
  uint64_t sentinels = 0;
  for (int v = 0; v < n_; ++v) sentinels += len8_[v] == 255;
  // The per-hub loop pinned table -> sentinel; equal counts close the
  // bijection, so FindHub never dereferences past the table. O(n) over
  // the index sections only — the stream stays cold.
  Require(sentinels == num_hubs_, "hub sentinel without a hub table entry");

  if (full_validation) {
    // Full O(n + m) structural decode. Pass 1: per-node streams (varint
    // shape, ranges, ordering, hub/anchor/eupper agreement). Pass 2:
    // adjacency symmetry via an expected-lowers CSR — when node v is
    // decoded, every u < v already recorded what v's lower entries must
    // be, in order.
    std::vector<int64_t> lower_off(static_cast<size_t>(n_) + 1, 0);
    int64_t entries = 0;
    int64_t uppers = 0;
    int computed_max_degree = 0;
    uint32_t hub_idx = 0;
    for (int v = 0; v < n_; ++v) {
      const uint64_t node_off = NodeOffset(v);
      const uint64_t len = NodeLen(v);
      Require(node_off + len <= stream_bytes_, "node stream past the end");
      const unsigned char* q = stream_ + node_off;
      const unsigned char* const end = q + len;
      const HubEntry* hub = nullptr;
      if (len8_[v] == 255) {
        if (hub_idx >= num_hubs_ || hubs_[hub_idx].node != v) {
          Fail("hub sentinel for node " + std::to_string(v) +
               " missing from the hub table");
        }
        hub = &hubs_[hub_idx++];
        Require(len >= 255, "hub node with a short stream");
        Require(len <= UINT32_MAX, "hub stream exceeds 4 GiB");
      }
      int deg = 0;
      int node_uppers = 0;
      int prev = -1;
      int64_t i = 0;
      // Error messages are built only on failure: this loop runs 2m times.
      while (q < end) {
        const unsigned char* const vstart = q;
        uint64_t raw = 0;
        int shift = 0;
        while (true) {
          if (q >= end) Fail("varint runs past the node stream");
          const unsigned char byte = *q++;
          if (shift >= 35) Fail("varint longer than 5 bytes");
          raw |= static_cast<uint64_t>(byte & 0x7f) << shift;
          shift += 7;
          if ((byte & 0x80) == 0) {
            if (q - vstart != 1 && byte == 0) {
              Fail("non-minimal varint encoding");
            }
            break;
          }
        }
        if (raw > static_cast<uint64_t>(INT32_MAX)) Fail("entry overflows");
        int value;
        if ((i & 63) == 0) {
          value = static_cast<int>(raw);
          if (hub != nullptr && i > 0) {
            const Anchor& a = anchors_[hub->anchor_start + (i / 64) - 1];
            if (a.byte_offset !=
                static_cast<uint64_t>(vstart - (stream_ + node_off))) {
              Fail("anchor byte offset disagrees with the stream");
            }
            if (a.value != value) Fail("anchor value disagrees with stream");
          }
        } else {
          if (raw == 0) Fail("zero gap entry");
          value = prev + static_cast<int>(raw);
        }
        // value > prev implies value >= 0 (prev starts at -1).
        if (value <= prev || value >= n_ || value == v) {
          Fail("adjacency of node " + std::to_string(v) + " at entry " +
               std::to_string(i) + " is not a strictly ascending in-range " +
               "neighbor list (value " + std::to_string(value) + ")");
        }
        prev = value;
        ++deg;
        node_uppers += value > v ? 1 : 0;
        ++i;
      }
      if (hub != nullptr) {
        Require(deg == hub->degree, "hub degree disagrees with the stream");
        Require(node_uppers == hub->upper_count,
                "hub upper_count disagrees with the stream");
      }
      if ((v & 31) == 0 &&
          eupper_base_[v >> 5] != static_cast<uint64_t>(uppers)) {
        Fail("eupper_base disagrees with the stream at block " +
             std::to_string(v >> 5));
      }
      entries += deg;
      uppers += node_uppers;
      lower_off[static_cast<size_t>(v) + 1] = deg - node_uppers;
      computed_max_degree = std::max(computed_max_degree, deg);
    }
    Require(hub_idx == num_hubs_, "hub table entry without a sentinel node");
    Require(uppers == m_, "upper-entry total disagrees with m");
    Require(entries == 2 * m_, "entry total is not 2m (asymmetric adjacency)");
    Require(computed_max_degree == max_degree_,
            "max_degree disagrees with the stream");
    for (int v = 0; v < n_; ++v) lower_off[v + 1] += lower_off[v];
    std::vector<int32_t> expected(static_cast<size_t>(lower_off[n_]));
    std::vector<int64_t> cursor(lower_off.begin(), lower_off.end() - 1);
    for (int v = 0; v < n_; ++v) {
      // Every u < v naming v as an upper has already been decoded, so
      // expected[lower_off[v]..cursor[v]) is final. Equal counts plus the
      // pointwise compare of two strictly-ascending sequences pins exact
      // set equality — without the count check, unfilled zero-initialized
      // slots could alias a claimed neighbor 0.
      int64_t j = lower_off[v];
      bool ok = cursor[v] == lower_off[v + 1];
      ForEachNeighbor(v, [&](int u) {
        if (u < v) {
          ok = ok && j < lower_off[v + 1] && expected[j] == u;
          ++j;
        } else {
          if (cursor[u] < lower_off[u + 1]) expected[cursor[u]] = v;
          ++cursor[u];
        }
      });
      if (!ok || j != lower_off[v + 1]) {
        Fail("asymmetric adjacency at node " + std::to_string(v) +
             " (a neighbor list names it but it does not reciprocate)");
      }
    }
  }
}

CompactGraph CompactGraph::FromBytes(std::string bytes) {
  CompactGraph g;
  g.owned_ = std::move(bytes);
  g.data_ = reinterpret_cast<const unsigned char*>(g.owned_.data());
  g.size_ = g.owned_.size();
  Require(g.size_ >= 8, "shorter than the integrity footer");
  uint64_t stored = 0;
  for (int i = 0; i < 8; ++i) {
    stored |= static_cast<uint64_t>(g.data_[g.size_ - 8 + i]) << (8 * i);
  }
  const uint64_t actual = support::Fnv1a64(g.data_, g.size_ - 8);
  if (stored != actual) {
    throw CompactGraphError(
        ".cgr integrity hash mismatch (truncated or corrupted file)");
  }
  g.Parse(/*full_validation=*/true);
  return g;
}

CompactGraph CompactGraph::FromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw CompactGraphError("cannot open " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) throw CompactGraphError("read error on " + path);
  return FromBytes(std::move(bytes));
}

CompactGraph CompactGraph::OpenMapped(const std::string& path) {
  const int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw CompactGraphError("cannot open " + path + ": " +
                            std::strerror(errno));
  }
  struct stat st{};
  if (fstat(fd, &st) != 0 || st.st_size < 0) {
    close(fd);
    throw CompactGraphError("cannot stat " + path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size < 8) {
    close(fd);
    throw CompactGraphError(path + ": shorter than the integrity footer");
  }
  // Streaming integrity check through a small buffer: faults no mapping
  // pages, so the open itself stays at constant RSS and the stream is
  // paged in lazily by actual adjacency access.
  {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> buf(1 << 20);
    uint64_t h = support::kDigestSeed;
    size_t remaining = size - 8;
    while (remaining > 0) {
      const size_t chunk = std::min(remaining, buf.size());
      in.read(buf.data(), static_cast<std::streamsize>(chunk));
      if (static_cast<size_t>(in.gcount()) != chunk) {
        close(fd);
        throw CompactGraphError("read error on " + path);
      }
      h = support::Fnv1a64(buf.data(), chunk, h);
      remaining -= chunk;
    }
    char footer[8];
    in.read(footer, 8);
    uint64_t stored = 0;
    for (int i = 0; i < 8; ++i) {
      stored |= static_cast<uint64_t>(static_cast<uint8_t>(footer[i]))
                << (8 * i);
    }
    if (!in || stored != h) {
      close(fd);
      throw CompactGraphError(
          path + ": integrity hash mismatch (truncated or corrupted file)");
    }
  }
  void* addr = mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  close(fd);
  if (addr == MAP_FAILED) {
    throw CompactGraphError("mmap failed on " + path + ": " +
                            std::strerror(errno));
  }
  CompactGraph g;
  g.map_addr_ = addr;
  g.map_len_ = size;
  g.data_ = static_cast<const unsigned char*>(addr);
  g.size_ = size;
  try {
    g.Parse(/*full_validation=*/false);
  } catch (...) {
    throw;  // g's destructor unmaps
  }
  return g;
}

void CompactGraph::WriteFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw CompactGraphError("cannot create " + path);
  out.write(reinterpret_cast<const char*>(data_),
            static_cast<std::streamsize>(size_));
  if (!out) throw CompactGraphError("write error on " + path);
}

// ---------------------------------------------------------------------------
// Accessors
// ---------------------------------------------------------------------------

void CompactGraph::CheckNode(int v, const char* who) const {
  if (v < 0 || v >= n_) {
    throw CompactGraphError(std::string(who) + ": node " + std::to_string(v) +
                            " out of range [0, " + std::to_string(n_) + ")");
  }
}

const CompactGraph::HubEntry* CompactGraph::FindHub(int v) const {
  const HubEntry* lo = hubs_;
  const HubEntry* hi = hubs_ + num_hubs_;
  const HubEntry* it = std::lower_bound(
      lo, hi, v, [](const HubEntry& h, int node) { return h.node < node; });
  return it;  // callers only reach here when len8_[v] == 255, so it->node == v
}

int CompactGraph::NeighborAt(int v, int p) const {
  CheckNode(v, "CompactGraph::NeighborAt");
  const uint64_t node_off = NodeOffset(v);
  const unsigned char* q = stream_ + node_off;
  int64_t i = 0;
  if (len8_[v] == 255) {
    const HubEntry* hub = FindHub(v);
    if (p < 0 || p >= hub->degree) {
      throw CompactGraphError("CompactGraph::NeighborAt: port out of range");
    }
    const int64_t a = p / 64;
    if (a > 0) {
      q = stream_ + node_off + anchors_[hub->anchor_start + a - 1].byte_offset;
      i = 64 * a;
    }
  } else if (p < 0) {
    throw CompactGraphError("CompactGraph::NeighborAt: port out of range");
  }
  const unsigned char* const end = stream_ + node_off + NodeLen(v);
  int prev = 0;
  for (; q < end; ++i) {
    const uint32_t raw = DecodeVarint(q);
    prev = (i & 63) == 0 ? static_cast<int>(raw)
                         : prev + static_cast<int>(raw);
    if (i == p) return prev;
  }
  throw CompactGraphError("CompactGraph::NeighborAt: port out of range");
}

int CompactGraph::PortOf(int v, int u) const {
  CheckNode(v, "CompactGraph::PortOf");
  const uint64_t node_off = NodeOffset(v);
  const unsigned char* q = stream_ + node_off;
  const unsigned char* end = stream_ + node_off + NodeLen(v);
  int64_t i = 0;
  if (len8_[v] == 255) {
    // Binary search the anchors for the 64-entry run containing u, then
    // decode at most that run: O(log(deg/64) + 64).
    const HubEntry* hub = FindHub(v);
    const Anchor* alo = anchors_ + hub->anchor_start;
    const Anchor* ahi = alo + hub->anchor_count;
    const Anchor* it = std::upper_bound(
        alo, ahi, u, [](int val, const Anchor& a) { return val < a.value; });
    if (it != alo) {
      --it;
      q = stream_ + node_off + it->byte_offset;
      i = 64 * (it - alo + 1);
    }
    if (it + 1 != ahi) end = stream_ + node_off + (it + 1)->byte_offset;
  }
  int prev = 0;
  for (; q < end; ++i) {
    const uint32_t raw = DecodeVarint(q);
    prev = (i & 63) == 0 ? static_cast<int>(raw)
                         : prev + static_cast<int>(raw);
    if (prev == u) return static_cast<int>(i);
    if (prev > u) return -1;
  }
  return -1;
}

int CompactGraph::UpperCount(int v) const {
  if (len8_[v] == 255) return FindHub(v)->upper_count;
  // Entries are sorted, so uppers are the suffix strictly above v.
  int uppers = 0;
  ForEachNeighbor(v, [&](int u) { uppers += u > v ? 1 : 0; });
  return uppers;
}

int64_t CompactGraph::EdgeIdBase(int v) const {
  int64_t base = static_cast<int64_t>(eupper_base_[v >> 5]);
  for (int w = v & ~31; w < v; ++w) base += UpperCount(w);
  return base;
}

int64_t CompactGraph::EdgeId(int v, int p) const {
  CheckNode(v, "CompactGraph::EdgeId");
  const int u = NeighborAt(v, p);
  if (u > v) {
    const int lower = Degree(v) - UpperCount(v);
    return EdgeIdBase(v) + (p - lower);
  }
  // (v, p) is a lower entry: the canonical id lives on the other side.
  return EdgeId(u, PortOf(u, v));
}

int64_t CompactGraph::EdgeBetween(int u, int v) const {
  CheckNode(u, "CompactGraph::EdgeBetween");
  CheckNode(v, "CompactGraph::EdgeBetween");
  if (u == v) return -1;
  if (u > v) std::swap(u, v);
  const int p = PortOf(u, v);  // an upper entry of u
  if (p < 0) return -1;
  const int lower = Degree(u) - UpperCount(u);
  return EdgeIdBase(u) + (p - lower);
}

std::pair<int, int> CompactGraph::Endpoints(int64_t e) const {
  if (e < 0 || e >= m_) {
    throw CompactGraphError("CompactGraph::Endpoints: edge " +
                            std::to_string(e) + " out of range [0, " +
                            std::to_string(m_) + ")");
  }
  const uint64_t nb = (static_cast<uint64_t>(n_) + 31) / 32;
  // Last block whose eupper_base is <= e.
  const uint64_t* it = std::upper_bound(eupper_base_, eupper_base_ + nb + 1,
                                        static_cast<uint64_t>(e)) -
                       1;
  const int64_t b = it - eupper_base_;
  int64_t acc = static_cast<int64_t>(*it);
  for (int v = static_cast<int>(32 * b); v < n_; ++v) {
    const int uppers = UpperCount(v);
    if (e < acc + uppers) {
      const int lower = Degree(v) - uppers;
      return {v, NeighborAt(v, lower + static_cast<int>(e - acc))};
    }
    acc += uppers;
  }
  throw CompactGraphError("CompactGraph::Endpoints: edge id beyond the "
                          "stream's upper entries (corrupt index)");
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

CompactGraph CompactGraph::FromGraph(const Graph& g) {
  Builder b(g.NumNodes());
  for (int v = 0; v < g.NumNodes(); ++v) {
    for (int u : g.Neighbors(v)) b.AddArc(v, u);
  }
  return b.Finish();
}

CompactGraph::Builder::Builder(int64_t n) : n_(n) {
  if (n < 0 || n > INT32_MAX) {
    throw CompactGraphError("CompactGraph::Builder: node count " +
                            std::to_string(n) + " outside [0, 2^31)");
  }
  len8_.reserve(static_cast<size_t>(n));
  eupper_base_.push_back(0);
}

void CompactGraph::Builder::AddArc(int64_t v, int64_t u) {
  if (finished_) throw CompactGraphError("Builder: AddArc after Finish");
  if (v < 0 || v >= n_ || u < 0 || u >= n_) {
    throw CompactGraphError("Builder: arc (" + std::to_string(v) + ", " +
                            std::to_string(u) + ") endpoint outside [0, " +
                            std::to_string(n_) + ")");
  }
  if (u == v) {
    throw CompactGraphError("Builder: self-loop at node " + std::to_string(v));
  }
  if (v < cur_) {
    throw CompactGraphError("Builder: arcs not sorted (node " +
                            std::to_string(v) + " after node " +
                            std::to_string(cur_) + ")");
  }
  while (cur_ < v) {
    CloseNode();
  }
  if (u <= prev_) {
    throw CompactGraphError(
        "Builder: adjacency of node " + std::to_string(v) +
        (u == prev_ ? " has duplicate neighbor " : " not sorted at neighbor ") +
        std::to_string(u));
  }
  if ((entry_ & 63) == 0) {
    if (entry_ > 0) {
      if (node_buf_.size() > UINT32_MAX) {
        throw CompactGraphError("Builder: node stream exceeds 4 GiB");
      }
      node_anchors_.push_back({static_cast<uint32_t>(node_buf_.size()),
                               static_cast<int32_t>(u)});
    }
    AppendVarint(node_buf_, static_cast<uint32_t>(u));
  } else {
    AppendVarint(node_buf_, static_cast<uint32_t>(u - prev_));
  }
  prev_ = u;
  ++entry_;
  ++total_entries_;
  if (u > v) {
    ++uppers_;
    ++total_uppers_;
  }
}

void CompactGraph::Builder::CloseNode() {
  const size_t len = node_buf_.size();
  if (len >= 255) {
    // Hub: degree/uppers cached in the side table, per-64-entry anchors,
    // sentinel length — and the whole block goes wide.
    len8_.push_back(255);
    block_wide_ = true;
    hubs_.push_back({static_cast<int32_t>(cur_), static_cast<int32_t>(entry_),
                     static_cast<int32_t>(uppers_),
                     static_cast<int32_t>(node_anchors_.size()),
                     static_cast<int64_t>(anchors_.size())});
    anchors_.insert(anchors_.end(), node_anchors_.begin(), node_anchors_.end());
  } else {
    len8_.push_back(static_cast<uint8_t>(len));
  }
  block_offsets_.push_back(stream_.size());
  stream_.append(node_buf_);
  max_degree_ = std::max(max_degree_, static_cast<int>(entry_));
  node_buf_.clear();
  node_anchors_.clear();
  entry_ = 0;
  prev_ = -1;
  uppers_ = 0;
  ++cur_;
  if ((cur_ & 31) == 0 || cur_ == n_) CloseBlock();
}

void CompactGraph::Builder::CloseBlock() {
  if (block_offsets_.empty()) return;
  if (block_wide_) {
    block_base_.push_back(kWideBit | (wide_off_.size() / 33));
    for (uint64_t off : block_offsets_) wide_off_.push_back(off);
    // Pad the partial final block; the end entry is the stream size.
    while (wide_off_.size() % 33 != 32) wide_off_.push_back(stream_.size());
    wide_off_.push_back(stream_.size());
  } else {
    block_base_.push_back(block_offsets_[0]);
  }
  eupper_base_.push_back(static_cast<uint64_t>(total_uppers_));
  block_offsets_.clear();
  block_wide_ = false;
}

std::string CompactGraph::Builder::FinishImage() {
  if (finished_) throw CompactGraphError("Builder: Finish called twice");
  while (cur_ < n_) CloseNode();
  finished_ = true;
  if (total_entries_ != 2 * total_uppers_) {
    throw CompactGraphError(
        "Builder: entry total " + std::to_string(total_entries_) +
        " is not twice the upper total " + std::to_string(total_uppers_) +
        " — some edge was fed in one direction only");
  }
  std::string out;
  const size_t wide_blocks = wide_off_.size() / 33;
  out.reserve(kHeaderBytes + 8 * (block_base_.size() + wide_off_.size() +
                                  eupper_base_.size()) +
              Pad8(len8_.size()) + sizeof(HubEntry) * hubs_.size() +
              sizeof(Anchor) * anchors_.size() + Pad8(stream_.size()) + 8);
  AppendU64(out, kMagic);
  AppendU32(out, kVersion);
  AppendU32(out, 0);  // flags
  AppendU64(out, static_cast<uint64_t>(n_));
  AppendU64(out, static_cast<uint64_t>(total_uppers_));
  AppendU32(out, static_cast<uint32_t>(max_degree_));
  AppendU32(out, static_cast<uint32_t>(hubs_.size()));
  AppendU64(out, stream_.size());
  AppendU64(out, wide_blocks);
  AppendU64(out, anchors_.size());
  const auto pad = [&out]() { out.append(Pad8(out.size()) - out.size(), '\0'); };
  for (uint64_t b : block_base_) AppendU64(out, b);
  for (uint64_t o : wide_off_) AppendU64(out, o);
  out.append(reinterpret_cast<const char*>(len8_.data()), len8_.size());
  pad();
  for (uint64_t e : eupper_base_) AppendU64(out, e);
  for (const HubEntry& h : hubs_) {
    AppendU32(out, static_cast<uint32_t>(h.node));
    AppendU32(out, static_cast<uint32_t>(h.degree));
    AppendU32(out, static_cast<uint32_t>(h.upper_count));
    AppendU32(out, static_cast<uint32_t>(h.anchor_count));
    AppendU64(out, static_cast<uint64_t>(h.anchor_start));
  }
  for (const Anchor& a : anchors_) {
    AppendU32(out, a.byte_offset);
    AppendU32(out, static_cast<uint32_t>(a.value));
  }
  out.append(stream_);
  pad();
  const uint64_t hash = support::Fnv1a64(out.data(), out.size());
  AppendU64(out, hash);
  std::string().swap(stream_);  // the builder is spent; free the big buffer
  return out;
}

}  // namespace treelocal
