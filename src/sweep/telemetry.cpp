#include "sweep/telemetry.hpp"

#include <cstdio>
#include <map>
#include <ostream>
#include <string_view>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "ckpt/io.hpp"
#include "obs/registry.hpp"
#include "tensor/gemm.hpp"

namespace skiptrain::sweep {

namespace {

/// JSON string escape for metric/grid names (quotes, backslashes, and
/// control characters; everything else passes through verbatim).
std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Fixed-notation double with enough digits for sub-microsecond times;
/// JSON has no Inf/NaN, so degenerate values collapse to 0.
std::string json_double(double value) {
  if (!(value == value) || value > 1e300 || value < -1e300) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

/// Peak resident set size in bytes, 0 when the platform offers no getrusage.
std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

void write_pool(std::ostream& out, const char* key,
                const util::ThreadPool::PoolStats& pool,
                double wall_seconds) {
  const double busy = static_cast<double>(pool.busy_ns) * 1e-9;
  const double capacity = wall_seconds * static_cast<double>(pool.workers);
  const double utilization = capacity > 0.0 ? busy / capacity : 0.0;
  out << "  \"" << key << "\": {\"workers\": " << pool.workers
      << ", \"busy_seconds\": " << json_double(busy)
      << ", \"tasks_executed\": " << pool.tasks_executed
      << ", \"utilization\": " << json_double(utilization) << "},\n";
}

void write_phases(std::ostream& out, const obs::PhaseStats& phases,
                  const char* indent) {
  out << "{";
  bool first = true;
  for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
    if (phases.calls[p] == 0) continue;
    if (!first) out << ",";
    out << "\n" << indent << "  \""
        << obs::phase_name(static_cast<obs::Phase>(p))
        << "\": {\"seconds\": " << json_double(phases.seconds[p])
        << ", \"calls\": " << phases.calls[p] << "}";
    first = false;
  }
  if (!first) out << "\n" << indent;
  out << "}";
}

}  // namespace

std::string default_telemetry_path(const std::string& csv_path) {
  constexpr std::string_view kCsv = ".csv";
  if (csv_path.size() > kCsv.size() &&
      csv_path.compare(csv_path.size() - kCsv.size(), kCsv.size(), kCsv) ==
          0) {
    return csv_path.substr(0, csv_path.size() - kCsv.size()) +
           ".telemetry.json";
  }
  return csv_path + ".telemetry.json";
}

void write_telemetry_json(const std::string& path,
                          const SweepReport& report) {
  const obs::Snapshot snap = obs::snapshot();
  const util::ThreadPool::PoolStats global_pool =
      util::ThreadPool::global().stats();
  // Exact wire bytes grouped by each trial's codec (a sweep may mix them).
  std::map<std::string, std::uint64_t> wire_by_codec;
  for (const TrialResult& trial : report.trials) {
    if (!trial.ok() || trial.result.telemetry.wire_bytes == 0) continue;
    wire_by_codec[quant::codec_name(trial.spec.options.exchange_codec)] +=
        trial.result.telemetry.wire_bytes;
  }

  ckpt::atomic_write(path, [&](std::ostream& out) {
    out << "{\n";
    out << "  \"sweep\": \"" << json_escape(report.name) << "\",\n";
    out << "  \"wall_seconds\": " << json_double(report.wall_seconds)
        << ",\n";
    out << "  \"trials\": " << report.trials.size() << ",\n";
    out << "  \"failures\": " << report.failures << ",\n";
    out << "  \"resumed_trials\": " << report.resumed_trials << ",\n";
    out << "  \"peak_rss_bytes\": " << peak_rss_bytes() << ",\n";
    out << "  \"gemm_isa\": \"" << tensor::gemm_isa() << "\",\n";
    write_pool(out, "trial_pool", report.trial_pool, report.wall_seconds);
    write_pool(out, "global_pool", global_pool, report.wall_seconds);

    out << "  \"phases\": ";
    write_phases(out, report.telemetry.phases, "  ");
    out << ",\n";
    out << "  \"phase_total_seconds\": "
        << json_double(report.telemetry.phases.total_seconds()) << ",\n";
    out << "  \"wire_bytes\": " << report.telemetry.wire_bytes << ",\n";
    out << "  \"wire_bytes_by_codec\": {";
    bool first = true;
    for (const auto& [codec, bytes] : wire_by_codec) {
      if (!first) out << ", ";
      out << "\"" << codec << "\": " << bytes;
      first = false;
    }
    out << "},\n";
    out << "  \"rounds\": " << report.telemetry.rounds << ",\n";

    out << "  \"counters\": {";
    first = true;
    for (const obs::CounterValue& c : snap.counters) {
      if (!first) out << ",";
      out << "\n    \"" << json_escape(c.name) << "\": " << c.value;
      first = false;
    }
    out << (first ? "" : "\n  ") << "},\n";

    out << "  \"gauges\": {";
    first = true;
    for (const obs::GaugeValue& g : snap.gauges) {
      if (!first) out << ",";
      out << "\n    \"" << json_escape(g.name) << "\": {\"value\": "
          << g.value << ", \"max\": " << g.max << "}";
      first = false;
    }
    out << (first ? "" : "\n  ") << "},\n";

    out << "  \"histograms\": {";
    first = true;
    for (const obs::HistogramValue& h : snap.histograms) {
      if (!first) out << ",";
      out << "\n    \"" << json_escape(h.name) << "\": {\"count\": "
          << h.count << ", \"sum\": " << h.sum << ", \"max\": " << h.max
          << ", \"mean\": " << json_double(h.mean())
          << ", \"p50\": " << h.quantile_upper_bound(0.50)
          << ", \"p99\": " << h.quantile_upper_bound(0.99) << "}";
      first = false;
    }
    out << (first ? "" : "\n  ") << "},\n";

    out << "  \"trials_detail\": [";
    first = true;
    for (const TrialResult& trial : report.trials) {
      if (!first) out << ",";
      out << "\n    {\"index\": " << trial.spec.index << ", \"dataset\": \""
          << json_escape(trial.spec.data.dataset) << "\", \"algorithm\": \""
          << json_escape(sim::algorithm_name(trial.spec.options.algorithm))
          << "\", \"codec\": \""
          << quant::codec_name(trial.spec.options.exchange_codec)
          << "\", \"ok\": " << (trial.ok() ? "true" : "false")
          << ", \"wall_seconds\": " << json_double(trial.wall_seconds)
          << ", \"rounds\": " << trial.result.telemetry.rounds
          << ", \"wire_bytes\": " << trial.result.telemetry.wire_bytes
          << ", \"phases\": ";
      write_phases(out, trial.result.telemetry.phases, "    ");
      out << "}";
      first = false;
    }
    out << (first ? "" : "\n  ") << "]\n";
    out << "}\n";
  });
}

}  // namespace skiptrain::sweep
