#include "obs/registry.hpp"

#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

namespace skiptrain::obs {

namespace detail {

std::atomic<bool> g_enabled{[] {
  // Static initialisation, single-threaded; no concurrent env mutation.
  const char* env = std::getenv("SKIPTRAIN_OBS");  // NOLINT(concurrency-mt-unsafe)
  return !(env != nullptr && env[0] == '0' && env[1] == '\0');
}()};

namespace {

/// Process-wide gauge cell: multi-writer, so both fields are CAS-maxed /
/// stored directly rather than sharded.
struct GaugeCell {
  std::atomic<std::int64_t> value{0};
  std::atomic<std::int64_t> max{0};
};

/// Everything the registry owns behind its mutex: the name tables, the
/// live-shard list, and the retired totals of exited threads. A Meyers
/// singleton with an intentionally leaked shard policy is NOT needed —
// shards unregister themselves before the registry can be destroyed only
// if threads outlive main; to stay safe against static-destruction-order
// races the registry itself is leaked (never destroyed).
struct Registry {
  std::mutex mutex;

  std::unordered_map<std::string, std::size_t> counter_ids;
  std::vector<std::string> counter_names;
  std::unordered_map<std::string, std::size_t> gauge_ids;
  std::vector<std::string> gauge_names;
  std::unordered_map<std::string, std::size_t> hist_ids;
  std::vector<std::string> hist_names;

  GaugeCell gauges[kMaxGauges];

  std::vector<Shard*> live_shards;

  // Totals merged from destroyed shards (exited threads).
  std::uint64_t retired_counters[kMaxCounters] = {};
  std::uint64_t retired_hist_count[kMaxHistograms] = {};
  std::uint64_t retired_hist_sum[kMaxHistograms] = {};
  std::uint64_t retired_hist_max[kMaxHistograms] = {};
  std::uint64_t retired_hist_buckets[kMaxHistograms][kHistogramBuckets] = {};
};

Registry& registry() {
  static Registry* instance = new Registry();  // leaked: see struct comment
  return *instance;
}

std::size_t register_name(std::unordered_map<std::string, std::size_t>& ids,
                          std::vector<std::string>& names,
                          std::string_view name, std::size_t capacity,
                          const char* kind) {
  const auto it = ids.find(std::string(name));
  if (it != ids.end()) return it->second;
  if (names.size() >= capacity) {
    throw std::runtime_error(std::string("obs: ") + kind +
                             " slots exhausted registering '" +
                             std::string(name) + "'");
  }
  const std::size_t id = names.size();
  names.emplace_back(name);
  ids.emplace(names.back(), id);
  return id;
}

}  // namespace

Shard::Shard() {
  Registry& reg = registry();
  std::lock_guard lock(reg.mutex);
  reg.live_shards.push_back(this);
}

Shard::~Shard() {
  Registry& reg = registry();
  std::lock_guard lock(reg.mutex);
  // Merge this thread's totals into the retired pools so its history
  // survives the thread, then drop out of the live list.
  for (std::size_t i = 0; i < kMaxCounters; ++i) {
    reg.retired_counters[i] +=
        counters[i].load(std::memory_order_relaxed);
  }
  for (std::size_t h = 0; h < kMaxHistograms; ++h) {
    reg.retired_hist_count[h] +=
        hist_count[h].load(std::memory_order_relaxed);
    reg.retired_hist_sum[h] += hist_sum[h].load(std::memory_order_relaxed);
    const std::uint64_t max = hist_max[h].load(std::memory_order_relaxed);
    if (max > reg.retired_hist_max[h]) reg.retired_hist_max[h] = max;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      reg.retired_hist_buckets[h][b] +=
          hist_buckets[h][b].load(std::memory_order_relaxed);
    }
  }
  std::erase(reg.live_shards, this);
}

Shard& local_shard() {
  thread_local Shard shard;
  return shard;
}

}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

Counter counter(std::string_view name) {
  auto& reg = detail::registry();
  std::lock_guard lock(reg.mutex);
  return Counter(detail::register_name(reg.counter_ids, reg.counter_names,
                                       name, kMaxCounters, "counter"));
}

Gauge gauge(std::string_view name) {
  auto& reg = detail::registry();
  std::lock_guard lock(reg.mutex);
  return Gauge(detail::register_name(reg.gauge_ids, reg.gauge_names, name,
                                     kMaxGauges, "gauge"));
}

Histogram hist(std::string_view name) {
  auto& reg = detail::registry();
  std::lock_guard lock(reg.mutex);
  return Histogram(detail::register_name(reg.hist_ids, reg.hist_names, name,
                                         kMaxHistograms, "histogram"));
}

void Gauge::set(std::int64_t value) const {
  if (!enabled()) return;
  auto& cell = detail::registry().gauges[id_];
  cell.value.store(value, std::memory_order_relaxed);
  std::int64_t seen = cell.max.load(std::memory_order_relaxed);
  while (value > seen &&
         !cell.max.compare_exchange_weak(seen, value,
                                         std::memory_order_relaxed)) {
  }
}

std::uint64_t HistogramValue::quantile_upper_bound(double q) const {
  if (count == 0) return 0;
  const double target = q * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    seen += buckets[b];
    if (static_cast<double>(seen) >= target) {
      return b >= 63 ? max : (std::uint64_t{1} << (b + 1)) - 1;
    }
  }
  return max;
}

std::uint64_t Snapshot::counter_value(std::string_view name) const {
  for (const CounterValue& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

const HistogramValue* Snapshot::find_histogram(std::string_view name) const {
  for (const HistogramValue& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

const GaugeValue* Snapshot::find_gauge(std::string_view name) const {
  for (const GaugeValue& g : gauges) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

Snapshot snapshot() {
  auto& reg = detail::registry();
  std::lock_guard lock(reg.mutex);

  Snapshot snap;
  snap.counters.resize(reg.counter_names.size());
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    snap.counters[i].name = reg.counter_names[i];
    snap.counters[i].value = reg.retired_counters[i];
  }
  snap.gauges.resize(reg.gauge_names.size());
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    snap.gauges[i].name = reg.gauge_names[i];
    snap.gauges[i].value = reg.gauges[i].value.load(std::memory_order_relaxed);
    snap.gauges[i].max = reg.gauges[i].max.load(std::memory_order_relaxed);
  }
  snap.histograms.resize(reg.hist_names.size());
  for (std::size_t h = 0; h < snap.histograms.size(); ++h) {
    HistogramValue& out = snap.histograms[h];
    out.name = reg.hist_names[h];
    out.count = reg.retired_hist_count[h];
    out.sum = reg.retired_hist_sum[h];
    out.max = reg.retired_hist_max[h];
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      out.buckets[b] = reg.retired_hist_buckets[h][b];
    }
  }

  for (const detail::Shard* shard : reg.live_shards) {
    for (std::size_t i = 0; i < snap.counters.size(); ++i) {
      snap.counters[i].value +=
          shard->counters[i].load(std::memory_order_relaxed);
    }
    for (std::size_t h = 0; h < snap.histograms.size(); ++h) {
      HistogramValue& out = snap.histograms[h];
      out.count += shard->hist_count[h].load(std::memory_order_relaxed);
      out.sum += shard->hist_sum[h].load(std::memory_order_relaxed);
      const std::uint64_t max =
          shard->hist_max[h].load(std::memory_order_relaxed);
      if (max > out.max) out.max = max;
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        out.buckets[b] +=
            shard->hist_buckets[h][b].load(std::memory_order_relaxed);
      }
    }
  }
  return snap;
}

}  // namespace skiptrain::obs
