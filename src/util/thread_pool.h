// Fixed-size fork-join thread pool for the query layer.
//
// The pool exists to shard *independent* work items — queries of a batch,
// world chunks of one query, per-object posterior adaptations — whose
// outputs go to disjoint slots. Under that contract every schedule produces
// the same bytes, so results are bit-identical at any thread count (the
// determinism contract of DESIGN.md section 4). The pool therefore offers
// only ParallelFor, not a general task queue: all parallelism in this
// codebase is data parallelism over pre-sized output arrays.
//
// Workers are started once and parked on a condition variable between
// calls; the calling thread participates as worker 0, so a pool of size 1
// (or size 0) degenerates to an inline loop with zero synchronization.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ust {

/// \brief Fork-join pool: ParallelFor over [0, n) with worker-indexed scratch.
class ThreadPool {
 public:
  /// `num_threads` <= 1 creates no worker threads (inline execution).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total workers, including the calling thread. Always >= 1.
  int num_threads() const { return num_threads_; }

  /// Runs `fn(i, worker)` for every i in [0, n) and blocks until all calls
  /// returned. `worker` is in [0, num_threads()) and identifies the executing
  /// lane — use it to index per-worker scratch. Indices are claimed from a
  /// shared counter, so the i -> worker assignment is nondeterministic; `fn`
  /// must write only to output slots owned by `i` (plus worker-private
  /// scratch) for results to be schedule-independent.
  /// Not reentrant: do not call ParallelFor from inside `fn`.
  void ParallelFor(size_t n, const std::function<void(size_t, int)>& fn);

  /// ParallelFor over contiguous ranges: `fn(begin, end, worker)` with
  /// [begin, end) a chunk of [0, n). Chunks are fixed-size (`grain`), so the
  /// chunk boundaries — and thus any per-chunk derived state, e.g. RNG
  /// offsets — do not depend on the thread count.
  void ParallelForChunked(size_t n, size_t grain,
                          const std::function<void(size_t, size_t, int)>& fn);

 private:
  void WorkerLoop(int worker);
  void RunJob(int worker);

  int num_threads_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  uint64_t generation_ = 0;   // bumped per ParallelFor; wakes the workers
  bool shutdown_ = false;
  int active_ = 0;            // workers still inside the current job

  // Current job (valid while active_ > 0 or between start and completion).
  const std::function<void(size_t, int)>* fn_ = nullptr;
  size_t n_ = 0;
  std::atomic<size_t> next_{0};
};

}  // namespace ust
