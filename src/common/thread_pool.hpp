// Fixed-size thread pool with a deterministic parallel_for.
//
// The pool runs the independent Monte-Carlo instances of a campaign
// (scenario::run_campaign); everything inside one instance is serial. The
// repo's reproducibility contract demands more than "eventually the same
// answer": results must be *bit-identical* at any thread count, so a
// bench run on a laptop and a CI run on a 64-core box pin the same
// golden numbers.
//
// The design choices that make this hold:
//
//   - parallel_for splits an index range into chunks whose boundaries
//     depend ONLY on the range length (never on the thread count);
//   - chunks may execute on any worker in any order, and each body call
//     writes only its own index's slot, so no result depends on which
//     chunk finishes first;
//   - there is no work stealing and no dynamic re-chunking — scheduling
//     freedom is confined to *which thread* runs a chunk, which cannot
//     affect the arithmetic.
//
// A pool of size 1 (or a reentrant call from inside a chunk) degenerates
// to plain inline execution with zero synchronization, which doubles as
// the reference serial path: serial and parallel are the same code.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace densevlc {

/// A fixed-size pool executing batches of independently indexed chunks.
/// The calling thread participates, so ThreadPool{n} uses n threads total
/// (n - 1 workers). Batches from concurrent callers are serialized.
class ThreadPool {
 public:
  /// `num_threads` == 0 is treated as 1 (pure serial execution).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads used per batch (workers + the calling thread).
  std::size_t num_threads() const { return num_threads_; }

  /// Runs chunk_fn(c) for every c in [0, num_chunks), blocking until all
  /// chunks completed. Chunk-to-thread placement is unspecified; chunk
  /// indices are claimed monotonically. Reentrant calls from inside a
  /// chunk execute serially inline (no nested parallelism). The first
  /// exception thrown by a chunk is rethrown to the caller after the
  /// batch drains.
  void run_chunks(std::size_t num_chunks,
                  const std::function<void(std::size_t)>& chunk_fn);

 private:
  void worker_loop();
  /// Claims and runs chunks until none remain; expects `lock` held.
  void drain_current_job(std::unique_lock<std::mutex>& lock);

  std::size_t num_threads_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_work_;  ///< signals workers: job available
  std::condition_variable cv_done_;  ///< signals caller: chunks finished
  const std::function<void(std::size_t)>* job_ = nullptr;  // guarded by mu_
  std::size_t job_total_ = 0;        ///< chunks in the current batch
  std::size_t job_next_ = 0;         ///< next unclaimed chunk index
  std::size_t job_unfinished_ = 0;   ///< claimed-or-unclaimed chunks left
  std::exception_ptr job_error_;     ///< first chunk exception
  bool stop_ = false;
};

/// max(1, std::thread::hardware_concurrency()).
std::size_t hardware_threads();

/// The process-wide pool used by parallel_for. Sized on
/// first use from the DENSEVLC_THREADS environment variable, defaulting
/// to hardware_threads().
ThreadPool& global_pool();

/// Replaces the global pool with one of `num_threads` threads (0 = reset
/// to the first-use default). Not safe to call while a batch is running.
void set_global_threads(std::size_t num_threads);

/// Thread count of the current global pool.
// DVLC_LINT_WAIVE(dead-public-api): perfbench's replay calls it
std::size_t global_threads();

namespace detail {

/// Upper bound on chunks per batch. Small enough that per-chunk overhead
/// stays negligible, large enough to load-balance 64 threads.
inline constexpr std::size_t kMaxChunks = 64;

/// Number of chunks used for a range of n items — a function of n only.
inline std::size_t chunk_count(std::size_t n) {
  return n < kMaxChunks ? n : kMaxChunks;
}

/// Half-open bounds of chunk c when n items split into `chunks` chunks:
/// the first (n % chunks) chunks get one extra item. Depends only on
/// (n, chunks, c).
inline std::pair<std::size_t, std::size_t> chunk_bounds(std::size_t n,
                                                        std::size_t chunks,
                                                        std::size_t c) {
  const std::size_t base = n / chunks;
  const std::size_t extra = n % chunks;
  const std::size_t lo = c * base + (c < extra ? c : extra);
  const std::size_t hi = lo + base + (c < extra ? 1 : 0);
  return {lo, hi};
}

}  // namespace detail

/// Calls body(i) for every i in [begin, end) on the global pool. Bodies
/// must only write to i-indexed (disjoint) destinations; under that
/// contract the result is identical to the serial loop at any thread
/// count.
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, Body&& body) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  const std::size_t chunks = detail::chunk_count(n);
  const std::function<void(std::size_t)> chunk_fn = [&](std::size_t c) {
    const auto [lo, hi] = detail::chunk_bounds(n, chunks, c);
    for (std::size_t i = lo; i < hi; ++i) body(begin + i);
  };
  global_pool().run_chunks(chunks, chunk_fn);
}

}  // namespace densevlc
