// Regression tests for the bench driver helpers: IdSpace used to compute
// n^3 directly in int64_t, which silently overflowed (signed UB) at
// n >= 2^21 — exactly the million-node sizes the engine benches run — and
// PowersOfTwo evaluated 1 << e, which is UB for e >= 31.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench/bench_util.h"

namespace treelocal {
namespace {

TEST(BenchUtilTest, IdSpaceSmallValuesAreExactCubes) {
  EXPECT_EQ(bench::IdSpace(0), 8);  // floors n at 2
  EXPECT_EQ(bench::IdSpace(2), 8);
  EXPECT_EQ(bench::IdSpace(10), 1000);
  EXPECT_EQ(bench::IdSpace(1 << 16), int64_t{1} << 48);
  EXPECT_EQ(bench::IdSpace(1 << 20), int64_t{1} << 60);  // largest exact power
}

TEST(BenchUtilTest, IdSpaceMillionNodeSizesDoNotOverflow) {
  // (2^21)^3 = 2^63 overflows int64_t; the clamp must kick in at and above
  // this size, keeping the result positive, monotone, and above every ID
  // that DefaultIds can generate (its space saturates at <= 2^62).
  const int64_t clamp = int64_t{1} << 62;
  EXPECT_EQ(bench::IdSpace(1 << 21), clamp);
  EXPECT_EQ(bench::IdSpace(1 << 22), clamp);
  EXPECT_EQ(bench::IdSpace((1 << 21) + 12345), clamp);
  EXPECT_EQ(bench::IdSpace(INT32_MAX), clamp);
  // The clamp leaves headroom for the downstream id_space + 1 arithmetic.
  EXPECT_LT(bench::IdSpace(INT32_MAX), INT64_MAX);
  // Monotone non-decreasing across the clamp boundary.
  int64_t prev = 0;
  for (int n : {1 << 19, 1 << 20, (1 << 21) - 1, 1 << 21, 1 << 22}) {
    EXPECT_GE(bench::IdSpace(n), prev) << "n=" << n;
    EXPECT_GT(bench::IdSpace(n), 0) << "n=" << n;
    prev = bench::IdSpace(n);
  }
}

TEST(BenchUtilTest, PowersOfTwoProducesTheSeries) {
  EXPECT_EQ(bench::PowersOfTwo(0, 3), (std::vector<int>{1, 2, 4, 8}));
  EXPECT_EQ(bench::PowersOfTwo(10, 12), (std::vector<int>{1024, 2048, 4096}));
  EXPECT_TRUE(bench::PowersOfTwo(5, 4).empty());  // empty range is fine
  // The largest legal exponent stays within int.
  auto big = bench::PowersOfTwo(30, 30);
  ASSERT_EQ(big.size(), 1u);
  EXPECT_EQ(big[0], 1 << 30);
}

TEST(BenchUtilTest, PowersOfTwoRejectsShiftUbRanges) {
  // 1 << 31 is signed-overflow UB; the old code computed it silently.
  EXPECT_THROW(bench::PowersOfTwo(10, 31), std::invalid_argument);
  EXPECT_THROW(bench::PowersOfTwo(31, 40), std::invalid_argument);
  EXPECT_THROW(bench::PowersOfTwo(-1, 5), std::invalid_argument);
}

TEST(BenchUtilTest, HostFieldsStampTheRecord) {
  bench::JsonWriter json;
  json.BeginRecord();
  json.Field("source", "bench_util_test");
  bench::HostFields(json);
  const std::string path = ::testing::TempDir() + "bench_util_host.json";
  std::remove(path.c_str());
  json.MergeAs("bench_util_test", path);
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());
  for (const char* key : {"\"host_nproc\": ", "\"host_cpu_model\": ",
                          "\"host_compiler\": ", "\"host_build_type\": "}) {
    EXPECT_NE(text.str().find(key), std::string::npos) << key;
  }
  EXPECT_EQ(text.str().find("\"host_nproc\": 0"), std::string::npos);
}

}  // namespace
}  // namespace treelocal
