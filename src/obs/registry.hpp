// Process-wide telemetry registry: lock-free counters, gauges, and
// fixed-bucket histograms.
//
// Design goals, in order:
//
//   1. Observational only. Nothing here may influence simulation results;
//      sweep CSVs and checkpoint images stay byte-identical with
//      telemetry on, off, or at any thread count.
//   2. Near-zero cost on the hot path. A Counter::add from an engine loop
//      is one relaxed flag load + one relaxed add on a thread-local
//      cache line; with telemetry disabled it is the flag load alone —
//      no locks, no allocation, no clock reads.
//   3. Exact totals. Every recording thread owns a thread-local shard;
//      snapshot() sums the live shards plus the retired totals of
//      threads that have exited, so once writers quiesce the merged
//      counts are exact (the concurrent-hammer test pins this).
//
// Handles (Counter/Gauge/Histogram) are cheap POD wrappers around a slot
// index. Registration (`obs::counter("gossip.rows_mixed")`) takes a lock
// and may allocate — do it once per call site via a static local:
//
//   static const obs::Counter rows = obs::counter("gossip.rows_mixed");
//   rows.add(n);
//
// Recording through an existing handle never allocates, even when
// disabled (the zero-allocation test pins this). Slot capacities are
// fixed at compile time; exceeding them throws at registration, never at
// record time.
//
// Histograms use power-of-two buckets: bucket b counts values in
// [2^b, 2^(b+1)) (value 0 lands in bucket 0), which spans 1 ns to ~18 s
// of latency in 64 buckets with < 2x relative error — plenty for phase
// and kernel timings.
//
// The SKIPTRAIN_OBS environment variable ("0" disables) sets the initial
// enabled state; set_enabled() flips it at runtime.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace skiptrain::obs {

inline constexpr std::size_t kMaxCounters = 256;
inline constexpr std::size_t kMaxGauges = 64;
inline constexpr std::size_t kMaxHistograms = 64;
inline constexpr std::size_t kHistogramBuckets = 64;

namespace detail {

/// One thread's private slice of every metric. Slots are atomics only so
/// snapshot() may read them concurrently; the owning thread is the sole
/// writer, so all operations are relaxed.
struct Shard {
  std::atomic<std::uint64_t> counters[kMaxCounters];
  std::atomic<std::uint64_t> hist_count[kMaxHistograms];
  std::atomic<std::uint64_t> hist_sum[kMaxHistograms];
  std::atomic<std::uint64_t> hist_max[kMaxHistograms];
  std::atomic<std::uint64_t> hist_buckets[kMaxHistograms][kHistogramBuckets];

  Shard();
  ~Shard();
};

Shard& local_shard();

extern std::atomic<bool> g_enabled;

}  // namespace detail

/// Global runtime switch. Disabled, every record operation degenerates to
/// one relaxed load + branch. Defaults to on unless SKIPTRAIN_OBS=0.
[[nodiscard]] inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

/// Monotonic event counter (e.g. rows mixed, bytes shipped).
class Counter {
 public:
  void add(std::uint64_t delta = 1) const {
    if (!enabled()) return;
    detail::local_shard().counters[id_].fetch_add(delta,
                                                  std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t id() const { return id_; }

 private:
  friend Counter counter(std::string_view);
  explicit Counter(std::size_t id) : id_(id) {}
  std::size_t id_;
};

/// Last-write-wins instantaneous value (e.g. queue depth), with a
/// monotone high-water mark. Process-wide, multi-writer.
class Gauge {
 public:
  void set(std::int64_t value) const;

  [[nodiscard]] std::size_t id() const { return id_; }

 private:
  friend Gauge gauge(std::string_view);
  explicit Gauge(std::size_t id) : id_(id) {}
  std::size_t id_;
};

/// Fixed power-of-two-bucket distribution (count/sum/max + 64 buckets).
class Histogram {
 public:
  void record(std::uint64_t value) const {
    if (!enabled()) return;
    detail::Shard& shard = detail::local_shard();
    shard.hist_count[id_].fetch_add(1, std::memory_order_relaxed);
    shard.hist_sum[id_].fetch_add(value, std::memory_order_relaxed);
    // The owning thread is the only writer, so load+store is race-free.
    if (value > shard.hist_max[id_].load(std::memory_order_relaxed)) {
      shard.hist_max[id_].store(value, std::memory_order_relaxed);
    }
    shard.hist_buckets[id_][bucket_of(value)].fetch_add(
        1, std::memory_order_relaxed);
  }

  /// Bucket index of `value`: floor(log2(value)), 0 for 0.
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t value) {
    if (value <= 1) return 0;
    return static_cast<std::size_t>(63 - __builtin_clzll(value));
  }

  [[nodiscard]] std::size_t id() const { return id_; }

 private:
  friend Histogram hist(std::string_view);
  explicit Histogram(std::size_t id) : id_(id) {}
  std::size_t id_;
};

/// Registers (or looks up) a metric by name. Idempotent: the same name
/// always maps to the same slot. Throws std::runtime_error past the
/// compile-time slot capacity. Takes a lock — cache the handle.
[[nodiscard]] Counter counter(std::string_view name);
[[nodiscard]] Gauge gauge(std::string_view name);
[[nodiscard]] Histogram hist(std::string_view name);

/// Naming sugar for nanosecond-valued histograms (`hist_ns` names should
/// end in "_ns" or ".ns" by convention; nothing enforces the unit).
[[nodiscard]] inline Histogram hist_ns(std::string_view name) {
  return hist(name);
}

// --- snapshot --------------------------------------------------------------

struct CounterValue {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeValue {
  std::string name;
  std::int64_t value = 0;
  std::int64_t max = 0;
};

struct HistogramValue {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::uint64_t buckets[kHistogramBuckets] = {};

  [[nodiscard]] double mean() const {
    return count != 0 ? static_cast<double>(sum) / static_cast<double>(count)
                      : 0.0;
  }

  /// Upper bound of the bucket holding quantile `q` (0 < q <= 1): an
  /// upper estimate with < 2x relative error from the bucket width.
  [[nodiscard]] std::uint64_t quantile_upper_bound(double q) const;
};

/// Merged view of every registered metric: live shards + the retired
/// totals of exited threads. Exact once recording threads have quiesced.
struct Snapshot {
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  /// Value of the named counter, 0 when absent.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;
  [[nodiscard]] const HistogramValue* find_histogram(
      std::string_view name) const;
  [[nodiscard]] const GaugeValue* find_gauge(std::string_view name) const;
};

[[nodiscard]] Snapshot snapshot();

}  // namespace skiptrain::obs
