#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/registry.hpp"
#include "obs/stopwatch.hpp"

namespace skiptrain::util {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  worker_ids_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
    worker_ids_.push_back(workers_.back().get_id());
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  task_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  std::size_t depth = 0;
  {
    std::lock_guard lock(mutex_);
    tasks_.push(std::move(task));
    ++in_flight_;
    depth = tasks_.size();
  }
  task_available_.notify_one();
  if (obs::enabled()) {
    // High-water mark of the task queue across every pool — a saturated
    // queue (depth >> workers) signals trial- or node-level imbalance.
    static const obs::Gauge queue_depth = obs::gauge("pool.queue_depth");
    queue_depth.set(static_cast<std::int64_t>(depth));
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      task_available_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    // A raw submit()ed task must not tear down the pool (or leak
    // in_flight_): log and keep serving. parallel_for chunks never reach
    // this — they capture their own first exception and rethrow it on
    // the calling thread.
    const std::uint64_t start_ns = obs::enabled() ? obs::now_ns() : 0;
    try {
      task();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[thread_pool] task threw: %s\n", e.what());
    } catch (...) {
      std::fprintf(stderr, "[thread_pool] task threw a non-std exception\n");
    }
    if (start_ns != 0) {
      busy_ns_.fetch_add(obs::now_ns() - start_ns, std::memory_order_relaxed);
      tasks_executed_.fetch_add(1, std::memory_order_relaxed);
    }
    {
      std::lock_guard lock(mutex_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

namespace {
thread_local bool t_force_serial = false;
}  // namespace

ThreadPool::ScopedForceSerial::ScopedForceSerial() : previous_(t_force_serial) {
  t_force_serial = true;
}

ThreadPool::ScopedForceSerial::~ScopedForceSerial() {
  t_force_serial = previous_;
}

bool ThreadPool::force_serial_active() { return t_force_serial; }

bool ThreadPool::on_worker_thread() const {
  const auto self = std::this_thread::get_id();
  return std::find(worker_ids_.begin(), worker_ids_.end(), self) !=
         worker_ids_.end();
}

void ThreadPool::parallel_for_chunks(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t min_per_chunk) {
  if (begin >= end) return;
  const std::size_t count = end - begin;
  // Serial fallbacks: trivial ranges, or re-entrant calls from a worker.
  if (count == 1 || workers_.empty() || t_force_serial || on_worker_thread()) {
    fn(begin, end);
    return;
  }
  // Chunk so every chunk carries at least min_per_chunk indices (grain):
  // cheap bodies get fewer, larger chunks instead of paying per-chunk
  // queue dispatch.
  const std::size_t max_chunks =
      std::max<std::size_t>(1, count / std::max<std::size_t>(1, min_per_chunk));
  const std::size_t num_chunks =
      std::min({count, workers_.size(), max_chunks});
  const std::size_t base = count / num_chunks;
  const std::size_t remainder = count % num_chunks;

  // All completion state lives under done_mutex: the caller can only see
  // remaining == 0 after the last worker released the lock, so no worker
  // can touch these stack locals once the wait returns.
  std::size_t remaining = num_chunks;
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::exception_ptr first_error;

  std::size_t offset = begin;
  for (std::size_t c = 0; c < num_chunks; ++c) {
    const std::size_t len = base + (c < remainder ? 1 : 0);
    const std::size_t lo = offset;
    const std::size_t hi = offset + len;
    offset = hi;
    submit([&, lo, hi] {
      // The completion counter must reach zero even if a body throws, or
      // the caller waits forever; the first error is rethrown below.
      std::exception_ptr error;
      try {
        fn(lo, hi);
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard lock(done_mutex);
      if (error && !first_error) first_error = error;
      if (--remaining == 0) done_cv.notify_one();
    });
  }
  std::unique_lock lock(done_mutex);
  done_cv.wait(lock, [&] { return remaining == 0; });
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    // Runs once under the static-local guard, before any pool worker
    // exists; nothing mutates the environment concurrently.
    if (const char* env = std::getenv("SKIPTRAIN_THREADS")) {  // NOLINT(concurrency-mt-unsafe)
      const long parsed = std::strtol(env, nullptr, 10);
      if (parsed > 0) return static_cast<std::size_t>(parsed);
    }
    return std::size_t{0};
  }());
  return pool;
}

}  // namespace skiptrain::util
