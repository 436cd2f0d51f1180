#ifndef TREELOCAL_SUPPORT_THREAD_POOL_H_
#define TREELOCAL_SUPPORT_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace treelocal::support {

// Persistent fork/join worker pool for the sharded LOCAL engines.
//
// A pool of `num_threads` execution lanes is created once (num_threads - 1
// OS threads plus the calling thread, which always participates) and reused
// for every ParallelFor — the engines fork/join once or twice per round, so
// per-call thread spawns would dominate tail rounds where only a handful of
// nodes are still active.
//
// Design constraints, in order:
//   * ParallelFor is a strict barrier: when it returns, every task body has
//     finished and its writes are visible to the caller (the join goes
//     through the pool mutex, which carries the happens-before edge the
//     engines' per-shard counters rely on).
//   * Exceptions propagate: the first exception thrown by any task is
//     captured and rethrown on the calling thread after the join; the pool
//     stays usable afterwards (the engines re-initialize all per-run state
//     on the next Run, so a mid-round abort is safe).
//   * Nesting is rejected, not deadlocked on: calling ParallelFor from
//     inside a task throws std::logic_error immediately. The engines never
//     nest (one flat fork per round), and silently running a nested loop
//     inline would hide an algorithmic bug.
//
// Tasks are claimed from an atomic counter, so num_tasks may exceed the lane
// count (excess tasks are picked up as lanes free up) and short prefixes
// leave the remaining lanes idle at the barrier.
class ThreadPool {
 public:
  // Upper bound on the lane count. Thread counts reach the engines from
  // command lines and config, so an absurd value must fail as a usage
  // error rather than start that many OS threads.
  static constexpr int kMaxThreads = 256;

  // `num_threads` in [1, kMaxThreads] lanes (std::invalid_argument
  // otherwise, thrown before any thread starts); exactly num_threads - 1
  // worker threads are spawned and parked until the first ParallelFor.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  // Invokes fn(t) for every t in [0, num_tasks), distributed across the
  // lanes; blocks until all invocations have completed. Rethrows the first
  // task exception. Throws std::logic_error when called from inside a task.
  void ParallelFor(int num_tasks, const std::function<void(int)>& fn);

 private:
  void WorkerLoop();
  // Claims and runs tasks of the current batch; records the first exception.
  void RunTasks();

  const int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable start_cv_;  // workers wait for a new batch
  std::condition_variable done_cv_;   // caller waits for the join
  uint64_t generation_ = 0;           // batch sequence number (guarded by mu_)
  int workers_running_ = 0;           // workers still inside the batch
  bool stop_ = false;

  // Current batch, valid while workers_running_ > 0 or the caller is in
  // ParallelFor; next_task_ is the shared claim counter.
  const std::function<void(int)>* fn_ = nullptr;
  int num_tasks_ = 0;
  std::atomic<int> next_task_{0};
  std::exception_ptr first_error_;  // guarded by mu_
};

}  // namespace treelocal::support

#endif  // TREELOCAL_SUPPORT_THREAD_POOL_H_
