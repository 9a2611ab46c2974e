// Tests for the fixed-size thread pool and its deterministic
// parallel_for.
//
// The contract under test: every chunk runs exactly once, chunk
// boundaries depend only on the range length — never on the thread
// count — and nested calls run inline. The campaign runner's end-to-end
// use of the pool is checked by Campaign.BitIdenticalAcrossThreadCounts.
#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace densevlc {
namespace {

/// Thread counts the coverage assertion sweeps:
/// {1, 2, 4, hardware_concurrency} (deduplicated by the loops being
/// idempotent when counts repeat).
std::vector<std::size_t> sweep_thread_counts() {
  return {1, 2, 4, hardware_threads()};
}

/// Restores the default global pool after each test.
class ThreadPoolTest : public ::testing::Test {
 protected:
  ~ThreadPoolTest() override { set_global_threads(0); }
};

TEST_F(ThreadPoolTest, RunsEveryChunkExactlyOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    ThreadPool pool{threads};
    std::vector<std::atomic<int>> hits(97);
    pool.run_chunks(hits.size(),
                    [&](std::size_t c) { hits[c].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST_F(ThreadPoolTest, ZeroChunksIsNoop) {
  ThreadPool pool{4};
  pool.run_chunks(0, [](std::size_t) { FAIL() << "chunk ran"; });
}

TEST_F(ThreadPoolTest, PoolIsReusableAcrossBatches) {
  ThreadPool pool{4};
  for (int batch = 0; batch < 50; ++batch) {
    std::atomic<int> count{0};
    pool.run_chunks(8, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 8);
  }
}

TEST_F(ThreadPoolTest, ChunkExceptionPropagatesToCaller) {
  ThreadPool pool{4};
  EXPECT_THROW(pool.run_chunks(16,
                               [](std::size_t c) {
                                 if (c == 7) {
                                   throw std::runtime_error{"chunk 7"};
                                 }
                               }),
               std::runtime_error);
  // The pool must still be serviceable afterwards.
  std::atomic<int> count{0};
  pool.run_chunks(4, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 4);
}

TEST_F(ThreadPoolTest, ChunkBoundsPartitionTheRange) {
  for (std::size_t n : {1u, 7u, 63u, 64u, 65u, 1000u}) {
    const std::size_t chunks = detail::chunk_count(n);
    std::size_t expected_lo = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
      const auto [lo, hi] = detail::chunk_bounds(n, chunks, c);
      EXPECT_EQ(lo, expected_lo);
      EXPECT_GT(hi, lo);
      expected_lo = hi;
    }
    EXPECT_EQ(expected_lo, n);
  }
}

TEST_F(ThreadPoolTest, ParallelForCoversRangeDisjointly) {
  for (std::size_t threads : sweep_thread_counts()) {
    set_global_threads(threads);
    std::vector<int> hits(1003, 0);
    parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
              static_cast<int>(hits.size()));
  }
}

TEST_F(ThreadPoolTest, NestedParallelForRunsInline) {
  set_global_threads(4);
  EXPECT_EQ(global_threads(), 4u);
  std::atomic<int> total{0};
  parallel_for(0, 8, [&](std::size_t) {
    // Reentrant use from inside a chunk must not deadlock.
    parallel_for(0, 8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST_F(ThreadPoolTest, RepeatedNestedParallelForPerChunkDoesNotDeadlock) {
  // Regression: a chunk body that makes TWO sequential nested parallel
  // calls. The first nested call's inline scope must not mark the thread
  // idle on exit — if it does, the second call enqueues on the pool as a
  // top-level batch and deadlocks against its own outer batch. Trip
  // condition needs more items than kMaxChunks so chunks hold several
  // indices (this is how the Monte-Carlo campaign runner found it).
  set_global_threads(4);
  const std::size_t n = detail::kMaxChunks * 2 + 5;
  std::vector<int> sums(n, 0);
  parallel_for(0, n, [&](std::size_t i) {
    int local = 0;
    // Nested calls run inline on the calling thread, so each ++local is
    // single-threaded by design.
    parallel_for(0, 4, [&](std::size_t) { ++local; });
    parallel_for(0, 4, [&](std::size_t) { ++local; });
    sums[i] = local;
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(sums[i], 8);
}

}  // namespace
}  // namespace densevlc
