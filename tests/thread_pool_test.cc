// Unit tests for the fork/join worker pool behind the sharded engines:
// correct task coverage at any num_tasks/lane ratio, reuse across many
// fork/join cycles (no respawn, no state leak), exception propagation to
// the caller with the pool usable afterwards, rejection of nested
// ParallelFor calls, and rejection of lane counts outside [1, kMaxThreads].
#include "src/support/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace treelocal::support {
namespace {

TEST(ThreadPoolTest, CoversEveryTaskExactlyOnce) {
  for (int lanes : {1, 2, 3, 8}) {
    ThreadPool pool(lanes);
    for (int num_tasks : {0, 1, 2, 7, 64}) {
      std::vector<std::atomic<int>> hits(num_tasks);
      for (auto& h : hits) h.store(0);
      pool.ParallelFor(num_tasks, [&](int t) {
        hits[t].fetch_add(1, std::memory_order_relaxed);
      });
      for (int t = 0; t < num_tasks; ++t) {
        EXPECT_EQ(hits[t].load(), 1) << "lanes=" << lanes << " task=" << t;
      }
    }
  }
}

TEST(ThreadPoolTest, JoinPublishesTaskWrites) {
  // Plain (non-atomic) per-task slots: the barrier must make every task's
  // write visible to the caller without any synchronization on our side.
  ThreadPool pool(4);
  const int kTasks = 256;
  std::vector<int64_t> slot(kTasks, 0);
  pool.ParallelFor(kTasks, [&](int t) { slot[t] = int64_t{t} * t + 1; });
  int64_t sum = 0;
  for (int t = 0; t < kTasks; ++t) sum += slot[t] - int64_t{t} * t;
  EXPECT_EQ(sum, kTasks);  // every slot was written exactly once
}

TEST(ThreadPoolTest, ReusableAcrossManyForkJoins) {
  // The engines fork/join every round; thousands of reuses must keep
  // working on the same persistent workers.
  ThreadPool pool(3);
  std::atomic<int64_t> total{0};
  for (int round = 0; round < 2000; ++round) {
    pool.ParallelFor(5, [&](int t) {
      total.fetch_add(t + 1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), int64_t{2000} * (1 + 2 + 3 + 4 + 5));
}

TEST(ThreadPoolTest, PropagatesTaskException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(16,
                       [&](int t) {
                         if (t == 11) throw std::runtime_error("task 11");
                       }),
      std::runtime_error);
  // Every surviving task of a throwing batch still ran or was skipped
  // cleanly, and the pool is fully usable afterwards.
  std::atomic<int> count{0};
  pool.ParallelFor(8, [&](int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPoolTest, PropagatesExceptionOnSingleLanePool) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.ParallelFor(
                   3, [&](int t) { if (t == 2) throw std::logic_error("x"); }),
               std::logic_error);
  std::atomic<int> count{0};
  pool.ParallelFor(3, [&](int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPoolTest, NestedParallelForThrows) {
  // Nesting would deadlock a fork/join pool (the inner call would wait on
  // lanes the outer call occupies); it must be rejected loudly — from the
  // inline single-lane path too.
  for (int lanes : {1, 4}) {
    ThreadPool pool(lanes);
    bool caught = false;
    try {
      pool.ParallelFor(2, [&](int) { pool.ParallelFor(2, [](int) {}); });
    } catch (const std::logic_error&) {
      caught = true;
    }
    EXPECT_TRUE(caught) << "lanes=" << lanes;
    // Still usable after the rejected nesting.
    std::atomic<int> count{0};
    pool.ParallelFor(4, [&](int) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 4);
  }
}

TEST(ThreadPoolTest, RejectsNonPositiveLaneCount) {
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
  EXPECT_THROW(ThreadPool(-2), std::invalid_argument);
}

// Lane counts come from command lines; one past the cap must be rejected
// before a single worker starts (the check precedes the spawn loop). Only
// cap + 1 is tried: a larger count would start that many threads if the
// check ever regressed.
TEST(ThreadPoolTest, RejectsLaneCountAboveCap) {
  EXPECT_THROW(ThreadPool(ThreadPool::kMaxThreads + 1), std::invalid_argument);
}

TEST(ThreadPoolTest, UnevenWorkStealsAcrossLanes) {
  // Tasks are claimed dynamically, so a few heavy tasks must not pin the
  // light ones behind them: all tasks complete regardless of imbalance.
  ThreadPool pool(4);
  std::vector<std::atomic<char>> done(64);
  for (auto& d : done) d.store(0);
  pool.ParallelFor(64, [&](int t) {
    volatile int64_t sink = 0;
    const int64_t spin = t % 13 == 0 ? 200000 : 10;
    for (int64_t i = 0; i < spin; ++i) sink = sink + i;
    done[t].store(1);
  });
  for (int t = 0; t < 64; ++t) EXPECT_EQ(done[t].load(), 1) << t;
}

}  // namespace
}  // namespace treelocal::support
