#include "src/support/rng.h"

#include <algorithm>
#include <cassert>

namespace treelocal {

uint64_t Rng::NextBelow(uint64_t bound) {
  assert(bound > 0);
  // Rejection sampling to avoid modulo bias.
  uint64_t limit = ~uint64_t{0} - (~uint64_t{0} % bound);
  uint64_t x;
  do {
    x = NextU64();
  } while (x >= limit);
  return x % bound;
}

int64_t Rng::NextInRange(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  return lo + static_cast<int64_t>(NextBelow(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

std::vector<int64_t> DistinctIds(int n, uint64_t seed, int64_t space) {
  assert(space >= n);
  Rng rng(seed);
  // Flat open-addressing seen-set: capacity a power of two >= 2n, linear
  // probing, 0 marks an empty slot (candidates are >= 1). Any exact set
  // accepts and rejects the same candidates, so the IDs do not depend on it.
  int bits = 1;
  while ((size_t{1} << bits) < 2 * static_cast<size_t>(std::max(n, 0))) ++bits;
  const size_t mask = (size_t{1} << bits) - 1;
  std::vector<int64_t> seen(mask + 1, 0);
  std::vector<int64_t> ids;
  ids.reserve(n);
  while (static_cast<int>(ids.size()) < n) {
    const int64_t candidate = rng.NextInRange(1, space);
    // Fibonacci hashing: the top `bits` bits of the product.
    size_t slot = static_cast<size_t>(
        (static_cast<uint64_t>(candidate) * 0x9e3779b97f4a7c15ull) >>
        (64 - bits));
    while (seen[slot] != 0 && seen[slot] != candidate) {
      slot = (slot + 1) & mask;
    }
    if (seen[slot] == 0) {
      seen[slot] = candidate;
      ids.push_back(candidate);
    }
  }
  return ids;
}

std::vector<int64_t> DefaultIds(int n, uint64_t seed) {
  int64_t nn = std::max<int64_t>(n, 2);
  int64_t space = nn;
  // n^3 with saturation against overflow.
  for (int i = 0; i < 2; ++i) {
    if (space > (int64_t{1} << 40)) break;
    space *= nn;
  }
  return DistinctIds(n, seed, space);
}

}  // namespace treelocal
