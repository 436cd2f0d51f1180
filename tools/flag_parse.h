#ifndef TREELOCAL_TOOLS_FLAG_PARSE_H_
#define TREELOCAL_TOOLS_FLAG_PARSE_H_

// Strict numeric command-line values, shared by every tool. A value must be
// all of one integer inside the flag's range. A non-number, trailing junk,
// overflow or an out-of-range value is a usage error naming the flag and its
// range — never atoi's silent 0, a wrapping narrowing cast, or a bare "stoi"
// from the library. The error goes to the tool's own `usage`, which prints
// it and exits 2.

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <system_error>

namespace treelocal::tools {

// A tool's usage printer; it must not return.
using UsageFn = void (*)(const std::string& error);

inline constexpr int64_t kIntMax = std::numeric_limits<int>::max();

// All of `s` as a decimal integer in [lo, hi]; `what` names the flag (or gen
// field) in the error.
inline int64_t ParseInt(const std::string& s, const std::string& what,
                        int64_t lo, int64_t hi, UsageFn usage) {
  int64_t v = 0;
  const char* const end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end || v < lo || v > hi) {
    usage(what + " must be in [" + std::to_string(lo) + ", " +
          std::to_string(hi) + "], got '" + s + "'");
    std::exit(2);
  }
  return v;
}

// All of `s` as an unsigned 64-bit integer, decimal or 0x-prefixed hex (seeds
// and digests, where every bit pattern is valid).
inline uint64_t ParseU64(const std::string& s, const std::string& what,
                         UsageFn usage) {
  const bool hex = s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X');
  const char* const begin = s.data() + (hex ? 2 : 0);
  const char* const end = s.data() + s.size();
  uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(begin, end, v, hex ? 16 : 10);
  if (ec != std::errc() || ptr != end) {
    usage(what + " must be an unsigned 64-bit integer (decimal or 0x hex), "
                 "got '" + s + "'");
    std::exit(2);
  }
  return v;
}

}  // namespace treelocal::tools

#endif  // TREELOCAL_TOOLS_FLAG_PARSE_H_
