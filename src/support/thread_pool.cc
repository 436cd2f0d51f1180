#include "src/support/thread_pool.h"

#include <stdexcept>
#include <string>

namespace treelocal::support {

namespace {
// Set while the current thread is executing a task body; ParallelFor checks
// it to reject nesting (from any pool — the property is per thread).
thread_local bool t_inside_task = false;
}  // namespace

ThreadPool::ThreadPool(int num_threads) : num_threads_(num_threads) {
  if (num_threads < 1 || num_threads > kMaxThreads) {
    throw std::invalid_argument("ThreadPool needs 1 <= num_threads <= " +
                                std::to_string(kMaxThreads) + ", got " +
                                std::to_string(num_threads));
  }
  workers_.reserve(num_threads - 1);
  for (int i = 0; i < num_threads - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::RunTasks() {
  t_inside_task = true;
  for (;;) {
    const int t = next_task_.fetch_add(1, std::memory_order_relaxed);
    if (t >= num_tasks_) break;
    try {
      (*fn_)(t);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
  }
  t_inside_task = false;
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, [&] {
        return stop_ || generation_ != seen_generation;
      });
      if (stop_) return;
      seen_generation = generation_;
    }
    RunTasks();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --workers_running_;
    }
    done_cv_.notify_one();
  }
}

void ThreadPool::ParallelFor(int num_tasks,
                             const std::function<void(int)>& fn) {
  if (t_inside_task) {
    throw std::logic_error("ThreadPool::ParallelFor may not be nested");
  }
  if (num_tasks <= 0) return;

  // Single-lane pools (and single-task batches on any pool) run inline:
  // same semantics, no synchronization. The nested-call check above already
  // ran, and RunTasks still funnels exceptions through first_error_ so both
  // paths report identically.
  const bool serial = workers_.empty() || num_tasks == 1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    num_tasks_ = num_tasks;
    next_task_.store(0, std::memory_order_relaxed);
    first_error_ = nullptr;
    if (!serial) {
      workers_running_ = static_cast<int>(workers_.size());
      ++generation_;
    }
  }
  if (!serial) start_cv_.notify_all();

  // The calling thread is a full lane: it drains tasks alongside the
  // workers, then joins the stragglers.
  RunTasks();
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!serial) {
      done_cv_.wait(lock, [&] { return workers_running_ == 0; });
    }
    error = first_error_;
    first_error_ = nullptr;
    fn_ = nullptr;
    num_tasks_ = 0;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace treelocal::support
