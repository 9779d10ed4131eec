// Per-trial phase accounting shared by the round engine and the sweep layer.
//
// A Phase names one of the fixed stages a simulated round passes through;
// PhaseStats is the plain accumulator (seconds + call counts per phase)
// an engine owns for its trial; PhaseScope is the RAII probe that feeds
// one timed interval to all three sinks at once:
//
//   * the engine's PhaseStats    (always — two clock reads per phase),
//   * the span tracer            (when tracing is active), and
//   * the "phase.<name>" hist_ns (when the registry is enabled).
//
// PhaseStats is deliberately not thread-safe: engine phases execute on
// the trial's driving thread (inline, or pinned-serial under the sweep's
// ScopedForceSerial), so per-trial accumulation is single-writer.
// run_experiment folds engine stats plus its own eval/checkpoint/setup
// measurements into the trial's TrialTelemetry; the sweep layer merges
// trials into the aggregate exported in telemetry.json.
#pragma once

#include <cstddef>
#include <cstdint>

#include "obs/trace.hpp"

namespace skiptrain::obs {

enum class Phase : std::size_t {
  kSetup = 0,    // dataset fetch, topology/engine construction, resume load
  kLiveness,     // energy accounting + scenario liveness decisions
  kTrain,        // local SGD steps
  kEncode,       // codec encode/decode at the staging boundary
  kGossip,       // neighbor exchange + mixing/aggregation
  kEval,         // global-model evaluation
  kCheckpoint,   // fleet-image save/load IO
  kCount,
};

inline constexpr std::size_t kPhaseCount =
    static_cast<std::size_t>(Phase::kCount);

/// Short phase name: "train", "gossip", ...
[[nodiscard]] const char* phase_name(Phase phase);

/// Span/histogram name: "round.train", "round.gossip", ... (string
/// literal with static storage, safe to hand to the tracer).
[[nodiscard]] const char* phase_span_name(Phase phase);

/// Wall seconds and entry counts per phase for one trial. Single-writer;
/// merge() folds another trial (or engine) into an aggregate.
struct PhaseStats {
  double seconds[kPhaseCount] = {};
  std::uint64_t calls[kPhaseCount] = {};

  void add(Phase phase, std::uint64_t elapsed_ns) {
    const auto p = static_cast<std::size_t>(phase);
    seconds[p] += static_cast<double>(elapsed_ns) * 1e-9;
    calls[p] += 1;
  }

  void merge(const PhaseStats& other) {
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      seconds[p] += other.seconds[p];
      calls[p] += other.calls[p];
    }
  }

  [[nodiscard]] double total_seconds() const {
    double total = 0.0;
    for (double s : seconds) total += s;
    return total;
  }
};

/// Closes one timed entry of `phase` that began at `start_ns` (from
/// obs::now_ns()): accumulates into `stats`, emits a trace span, and
/// records into the phase's "phase.<name>.ns" histogram. The flat
/// counterpart of PhaseScope for sections that don't form a C++ scope —
/// the engine's interleaved encode/gossip branches use it directly.
void note_phase(PhaseStats& stats, Phase phase, std::uint64_t start_ns);

/// Times the enclosing scope as one entry of `phase`: accumulates into
/// `stats`, emits a trace span, and records into the phase's histogram.
class PhaseScope {
 public:
  PhaseScope(PhaseStats& stats, Phase phase)
      : stats_(stats), phase_(phase), start_ns_(now_ns()) {}

  ~PhaseScope() { note_phase(stats_, phase_, start_ns_); }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  PhaseStats& stats_;
  Phase phase_;
  std::uint64_t start_ns_;
};

/// Everything one trial reports about its own runtime. Observational
/// only — never serialized into checkpoints or the sweep CSV.
struct TrialTelemetry {
  PhaseStats phases;
  std::uint64_t wire_bytes = 0;  // exact codec wire footprint shipped
  std::uint64_t rounds = 0;      // rounds executed

  void merge(const TrialTelemetry& other) {
    phases.merge(other.phases);
    wire_bytes += other.wire_bytes;
    rounds += other.rounds;
  }
};

}  // namespace skiptrain::obs
