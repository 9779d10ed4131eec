// Per-sweep runtime telemetry export (telemetry.json).
//
// write_telemetry_json serializes everything a finished SweepReport knows
// about HOW the sweep ran — per-phase wall-time breakdown, exact codec
// wire bytes (total and by codec), checkpoint IO, worker-pool
// utilization, peak RSS, and a dump of the process-wide obs registry —
// into one JSON document next to the summary CSV. Strictly observational:
// the CSV bytes never depend on whether this file is written, and the
// schema carries only runtime facts, never simulation results.
//
// Schema (all times in seconds, all sizes in bytes):
//   {
//     "sweep": <grid name>, "wall_seconds": w,
//     "trials": n, "failures": f, "resumed_trials": r,
//     "peak_rss_bytes": rss,                     // 0 when unavailable
//     "gemm_isa": "avx2" | "default",            // GEMM clone that ran
//     "trial_pool":  {workers, busy_seconds, tasks_executed, utilization},
//     "global_pool": {workers, busy_seconds, tasks_executed, utilization},
//     "phases": {"train": {"seconds": s, "calls": c}, ...},
//     "phase_total_seconds": sum over phases,
//     "wire_bytes": total, "wire_bytes_by_codec": {"identity": b, ...},
//     "rounds": total rounds executed across fresh trials,
//     "counters": {name: value, ...},
//     "gauges":   {name: {"value": v, "max": m}, ...},
//     "histograms": {name: {count, sum, max, mean, p50, p99}, ...},
//     "trials_detail": [{index, dataset, algorithm, codec, ok,
//                        wall_seconds, rounds, wire_bytes,
//                        phases: {...}}, ...]
//   }
#pragma once

#include <string>

#include "sweep/runner.hpp"

namespace skiptrain::sweep {

/// "fig3_sweep.csv" -> "fig3_sweep.telemetry.json" (the ".csv" suffix is
/// replaced when present, otherwise ".telemetry.json" is appended).
[[nodiscard]] std::string default_telemetry_path(const std::string& csv_path);

/// Writes the report's runtime telemetry to `path` (atomically, via
/// ckpt::atomic_write). Captures the CURRENT obs registry snapshot and
/// global-pool stats, so call it right after the sweep finishes. Throws
/// std::runtime_error when the file cannot be written.
void write_telemetry_json(const std::string& path, const SweepReport& report);

}  // namespace skiptrain::sweep
