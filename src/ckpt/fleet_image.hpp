// Versioned fleet images: one file = one entire simulation (ROADMAP:
// "serialize whole fleets as one contiguous plane image instead of
// per-model files").
//
// The paper's constrained setting (§3.2) is about fleets that stop and
// restart as energy allows; intermittent-learning systems treat
// persist/restore of training state as a first-class primitive. A fleet
// image makes the simulator itself restartable the same way: it captures
// everything mutable about an engine —
//
//   header     "SKTF" magic + format version
//   summary    engine kind byte (always 0: RoundEngine), nodes, dim,
//              round counter
//   fingerprint config seed, exchange codec, sparse k, scheduler name
//   accountant per-node energy tallies, training counts, budgets
//   plane blob the [n × dim] parameter matrix, row-arena-contiguous, so
//              restore is ONE read into the existing RowArena with no
//              per-row copies
//   node state per-node RNG stream + optimizer momentum buffer
//   experiment (optional) recorder series + experiment counters, so a
//              resumed sim::run_experiment emits byte-identical CSVs
//
// Bit-identical resume guarantee: restoring an image into an engine
// constructed with the same parameters and running the remaining rounds
// produces byte-identical metrics to an uninterrupted run, at any thread
// count. Mismatched construction (shape, seed, codec, scheduler) is
// rejected with std::runtime_error, as are truncated files, trailing
// garbage, and hostile length prefixes (see ckpt/io.hpp).
//
// Writes are atomic (tmp + rename): a crash mid-checkpoint leaves the
// previous image intact.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "ckpt/io.hpp"
#include "metrics/recorder.hpp"

namespace skiptrain::sim {
class RoundEngine;
}  // namespace skiptrain::sim

namespace skiptrain::ckpt {

/// v2 added per-section CRC32C checksums (prefix / engine payload /
/// experiment section), so a torn or bit-flipped image is rejected by
/// checksum before a half-parsed payload can reach an engine.
inline constexpr std::uint32_t kFleetImageVersion = 2;

/// Cheap metadata probe (header + summary only; the payload is not
/// deserialized or validated beyond the header). The engine-kind byte
/// must be 0 (RoundEngine); any other kind, such as an image written by
/// the retired asynchronous engine (kind 1), is rejected with
/// std::runtime_error.
struct FleetImageInfo {
  std::uint64_t nodes = 0;
  std::uint64_t dim = 0;
  std::uint64_t round = 0;  ///< RoundEngine::rounds_executed()
  bool has_experiment = false;
};

[[nodiscard]] FleetImageInfo probe_fleet_image(const std::string& path);

/// Stream-level probe over exactly `file_bytes` of image bytes; `what`
/// names the source in error messages. The path overload wraps this —
/// exposed separately so hostile-input harnesses (fuzzers, bit-flip
/// matrices) can drive the parser from memory.
[[nodiscard]] FleetImageInfo probe_fleet_image(std::istream& in,
                                               std::uint64_t file_bytes,
                                               const std::string& what);

/// Engine-only images (tests, examples, ad-hoc snapshots). The restore
/// functions throw std::runtime_error on any mismatch or corruption;
/// identity mismatches are detected before the engine is touched, but a
/// file corrupted past its identity prefix can fail mid-restore — after
/// a throw, treat the engine as unspecified and rebuild it.
void save_fleet_image(const sim::RoundEngine& engine,
                      const std::string& path);
void restore_fleet_image(sim::RoundEngine& engine, const std::string& path);

/// Experiment-level state carried alongside the engine payload so
/// sim::run_experiment can resume mid-trial with its recorder intact:
/// the resumed run's CSV is byte-identical to an uninterrupted one.
/// `fingerprint` is an opaque caller-supplied identity of the FULL run
/// configuration (sweeps pass ckpt::trial_fingerprint); it is stored
/// ahead of the engine payload so a stale image from an edited
/// configuration is rejected before any engine state is touched.
struct ExperimentState {
  std::vector<metrics::RoundRecord> records;
  std::uint64_t coordinated_training_rounds = 0;
  std::string fingerprint{};
};

/// `io_faults` (optional) enables deterministic write-failure injection
/// with bounded retry — see ckpt::IoFaultPolicy.
void save_experiment_image(const sim::RoundEngine& engine,
                           const ExperimentState& experiment,
                           const std::string& path,
                           const IoFaultPolicy* io_faults = nullptr);

/// Restores an experiment image. When `expected_fingerprint` is
/// non-empty and differs from the image's stored fingerprint, returns
/// false WITHOUT touching the engine (the caller starts fresh instead —
/// a stale in-flight image from an edited grid must never leak resumed
/// state into a run). Construction mismatches (shape, seed, codec,
/// scheduler) still throw std::runtime_error.
[[nodiscard]] bool restore_experiment_image(
    sim::RoundEngine& engine, ExperimentState& experiment,
    const std::string& path, const std::string& expected_fingerprint = "");

/// One recorder row on the wire — shared by the experiment section above
/// and the trial-result store (ckpt/trial_store). Every record occupies
/// exactly kRoundRecordWireBytes (2 u64, 1 u8, 7 f64), the element size
/// record-count prefixes are bounded against.
inline constexpr std::size_t kRoundRecordWireBytes =
    2 * sizeof(std::uint64_t) + 1 + 7 * sizeof(double);

void write_round_record(ImageWriter& writer,
                        const metrics::RoundRecord& record);
[[nodiscard]] metrics::RoundRecord read_round_record(ImageReader& reader);

// --- multi-generation retention --------------------------------------------
//
// With keep_generations = N > 1, each checkpoint keeps the N most recent
// images: `path` is the newest, `path.g1` the previous, up to
// `path.g{N-1}`. A resume walks newest -> oldest and restores from the
// first generation that validates, so one corrupt or torn image costs at
// most `checkpoint_every` rounds of recomputation, never the run.

/// Shifts existing generations one slot older (path -> path.g1 -> ...;
/// the oldest falls off). Call immediately before writing a new image at
/// `path`. No-op when keep <= 1 or `path` does not exist yet.
void rotate_generations(const std::string& path, std::size_t keep);

/// Candidate restore paths, newest first: path, path.g1, ...,
/// path.g{keep-1}. keep = 0 is treated as 1.
[[nodiscard]] std::vector<std::string> generation_paths(
    const std::string& path, std::size_t keep);

/// Best-effort removal of `path` and every `path.gN` sibling (sweep
/// cleanup after a trial's result is durably stored).
void remove_generations(const std::string& path, std::size_t keep);

}  // namespace skiptrain::ckpt
