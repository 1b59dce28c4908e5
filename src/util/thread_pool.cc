#include "util/thread_pool.h"

#include <algorithm>

namespace ust {

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int w = 1; w < num_threads_; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::RunJob(int worker) {
  for (;;) {
    const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n_) break;
    (*fn_)(i, worker);
  }
}

void ThreadPool::WorkerLoop(int worker) {
  uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
    }
    RunJob(worker);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--active_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t, int)>& fn) {
  if (n == 0) return;
  if (num_threads_ == 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i, 0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    n_ = n;
    next_.store(0, std::memory_order_relaxed);
    active_ = num_threads_ - 1;
    ++generation_;
  }
  start_cv_.notify_all();
  RunJob(0);  // the caller is worker 0
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return active_ == 0; });
  fn_ = nullptr;
}

void ThreadPool::ParallelForChunked(
    size_t n, size_t grain, const std::function<void(size_t, size_t, int)>& fn) {
  if (n == 0) return;
  const size_t g = std::max<size_t>(1, grain);
  const size_t num_chunks = (n + g - 1) / g;
  ParallelFor(num_chunks, [&](size_t chunk, int worker) {
    const size_t begin = chunk * g;
    fn(begin, std::min(begin + g, n), worker);
  });
}

}  // namespace ust
