#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <vector>

namespace ust {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  const size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  pool.ParallelFor(n, [&](size_t i, int) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, WorkerIndicesStayInRange) {
  ThreadPool pool(3);
  std::atomic<bool> bad{false};
  pool.ParallelFor(5000, [&](size_t, int worker) {
    if (worker < 0 || worker >= 3) bad.store(true);
  });
  EXPECT_FALSE(bad.load());
}

TEST(ThreadPoolTest, SingleThreadRunsInlineInOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  std::vector<size_t> order;
  pool.ParallelFor(100, [&](size_t i, int worker) {
    EXPECT_EQ(worker, 0);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 100u);
  for (size_t i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, ZeroAndNonPositiveSizes) {
  ThreadPool pool(0);  // clamps to 1
  EXPECT_EQ(pool.num_threads(), 1);
  bool ran = false;
  pool.ParallelFor(0, [&](size_t, int) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, PoolIsReusableAcrossJobs) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(round + 1, [&](size_t i, int) { sum.fetch_add(i + 1); });
    const size_t n = static_cast<size_t>(round) + 1;
    EXPECT_EQ(sum.load(), n * (n + 1) / 2);
  }
}

TEST(ThreadPoolTest, ChunkBoundariesIndependentOfThreadCount) {
  // The chunked variant must produce the same [begin, end) decomposition at
  // any pool size — per-chunk derived state (e.g. RNG offsets) depends on it.
  auto chunks_at = [](int threads) {
    ThreadPool pool(threads);
    std::mutex mu;
    std::set<std::pair<size_t, size_t>> chunks;
    pool.ParallelForChunked(1000, 128, [&](size_t b, size_t e, int) {
      std::lock_guard<std::mutex> lock(mu);
      chunks.insert({b, e});
    });
    return chunks;
  };
  const auto serial = chunks_at(1);
  EXPECT_EQ(serial, chunks_at(2));
  EXPECT_EQ(serial, chunks_at(4));
  // And the decomposition tiles [0, 1000) exactly.
  size_t expected_begin = 0;
  for (const auto& [b, e] : serial) {
    EXPECT_EQ(b, expected_begin);
    expected_begin = e;
  }
  EXPECT_EQ(expected_begin, 1000u);
}

}  // namespace
}  // namespace ust
