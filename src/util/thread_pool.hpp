// A small fixed-size worker pool used to parallelise per-node work in the
// decentralized-learning simulator (local SGD steps, aggregation, accuracy
// evaluation). Work is submitted either as individual tasks or through
// parallel_for, which block-partitions an index range.
//
// Nested-parallelism policy: calling parallel_for from inside a worker
// thread executes the loop serially on the calling thread. This keeps call
// sites composable (an evaluator may be called both from main and from a
// worker) without risking deadlock on a bounded pool.
#pragma once

#include <atomic>
#include <concepts>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

namespace skiptrain::util {

class ThreadPool {
 public:
  /// Creates `num_threads` workers. 0 means hardware_concurrency().
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; returns immediately.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait_idle();

  /// Runs body(i) for i in [begin, end), partitioned into contiguous
  /// blocks across the workers, and blocks until completion. `grain`
  /// bounds the smallest block size (reduces scheduling overhead for cheap
  /// bodies). If a body throws, the remaining chunks still complete and the
  /// first exception is rethrown on the calling thread. The body is called
  /// directly inside the chunk loop: type-erased dispatch happens once per
  /// CHUNK (the task queue), never per index.
  template <typename Body>
    requires std::invocable<Body&, std::size_t>
  void parallel_for(std::size_t begin, std::size_t end, Body&& body,
                    std::size_t grain = 1) {
    parallel_for_chunks(
        begin, end,
        [&body](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) body(i);
        },
        grain);
  }

  /// Like parallel_for but hands each worker a [chunk_begin, chunk_end)
  /// range, letting the body amortise per-chunk setup. `min_per_chunk`
  /// bounds the smallest chunk (fewer, larger chunks for cheap bodies).
  void parallel_for_chunks(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t, std::size_t)>& fn,
      std::size_t min_per_chunk = 1);

  /// True when the calling thread is one of this pool's workers.
  bool on_worker_thread() const;

  /// Cumulative worker utilization telemetry. Busy time is wall-clock
  /// spent inside task bodies, summed over workers; idle time is the
  /// complement of busy over each worker's lifetime. Tracked only while
  /// obs::enabled() (two clock reads per task — tasks are chunks, not
  /// indices); observational only, never read by scheduling decisions.
  struct PoolStats {
    std::size_t workers = 0;
    std::uint64_t busy_ns = 0;
    std::uint64_t tasks_executed = 0;
  };
  [[nodiscard]] PoolStats stats() const {
    return PoolStats{workers_.size(),
                     busy_ns_.load(std::memory_order_relaxed),
                     tasks_executed_.load(std::memory_order_relaxed)};
  }

  /// While an instance is alive, parallel_for / parallel_for_chunks on the
  /// calling thread run serially for EVERY pool, not just the one the
  /// thread belongs to. This extends the nested-serial policy across
  /// pools: the sweep runner executes whole trials on its workers and
  /// pins each trial's node-level loops to that worker. Nests correctly.
  class ScopedForceSerial {
   public:
    ScopedForceSerial();
    ~ScopedForceSerial();
    ScopedForceSerial(const ScopedForceSerial&) = delete;
    ScopedForceSerial& operator=(const ScopedForceSerial&) = delete;

   private:
    bool previous_;
  };

  /// True when the calling thread is inside a ScopedForceSerial scope.
  static bool force_serial_active();

  /// Process-wide pool sized from SKIPTRAIN_THREADS (if set) or the
  /// hardware concurrency. Constructed on first use.
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::vector<std::thread::id> worker_ids_;
  std::queue<std::function<void()>> tasks_;
  mutable std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
  std::atomic<std::uint64_t> busy_ns_{0};
  std::atomic<std::uint64_t> tasks_executed_{0};
};

/// Convenience wrapper over ThreadPool::global().parallel_for.
template <typename Body>
  requires std::invocable<Body&, std::size_t>
void parallel_for(std::size_t begin, std::size_t end, Body&& body,
                  std::size_t grain = 1) {
  ThreadPool::global().parallel_for(begin, end, std::forward<Body>(body),
                                    grain);
}

}  // namespace skiptrain::util
