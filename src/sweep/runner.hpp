// SweepRunner: expands a SweepGrid and executes its trials concurrently.
//
// Parallelism model: trial-level parallelism on a util::ThreadPool, layered
// over the engine's node-level parallel_for. When the trial workers
// saturate the machine, each trial runs under
// ThreadPool::ScopedForceSerial, so a trial's inner loops stay on its
// worker (the nested-serial policy, extended across pools) — N workers run
// N whole trials concurrently instead of fighting over node-level tasks.
// When the grid is smaller than the machine, node-level parallelism stays
// enabled so surplus cores are used. With threads == 1 the trials run
// inline on the caller with full node-level parallelism — the schedule of
// the old hand-rolled bench loops.
//
// Determinism: trials are pure functions of their TrialSpec (per-node RNG
// streams, counter-based scheduler draws, index-ordered reductions), the
// dataset cache shares one immutable build per DataConfig, and the result
// sink orders rows by trial index — so the summary CSV is byte-identical
// at any worker count.
//
// Dispatch: the worker pool takes trials longest-estimated-first
// (dispatch_order), so the costliest trials do not start last and leave
// the other workers idle at the end of the sweep. Rows still land in
// index order.
//
// Failures: a throwing trial is caught, recorded as a failed row with its
// error text, and counted in SweepReport::failures. It never tears down
// the sweep and is never silently dropped.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "obs/phase.hpp"
#include "sweep/dataset_cache.hpp"
#include "sweep/grid.hpp"
#include "sweep/result_sink.hpp"
#include "util/thread_pool.hpp"

namespace skiptrain::sweep {

struct SweepOptions {
  /// Concurrent trials. 0 = one per hardware thread; 1 = run inline with
  /// node-level parallelism enabled inside the single trial.
  std::size_t threads = 0;

  /// Print a one-line progress note per finished trial to stderr.
  bool verbose = false;

  /// Crash-resumable sweeps (ckpt/trial_store). When set, every finished
  /// trial's result is persisted to `<checkpoint_dir>/trial_<i>.result`
  /// (atomically, plus a manifest line), and trials additionally write
  /// in-flight fleet images every `checkpoint_every` rounds. With
  /// `resume`, completed trials are loaded instead of re-run and
  /// in-flight trials restart from their last image — the summary CSV
  /// comes out byte-identical to an uninterrupted sweep.
  std::string checkpoint_dir{};
  std::size_t checkpoint_every = 0;
  bool resume = false;

  /// In-flight fleet-image generations each trial retains (0/1 = single
  /// image). A resume falls back to the newest generation that validates,
  /// so one corrupt/torn image costs at most checkpoint_every rounds.
  std::size_t keep_generations = 1;
};

struct SweepReport {
  std::string name;
  std::vector<TrialResult> trials;  // grid-expansion (trial-index) order
  std::size_t failures = 0;
  std::size_t resumed_trials = 0;  // loaded from checkpoint, not re-run
  double wall_seconds = 0.0;

  /// Aggregate runtime telemetry over every fresh-run trial (resumed
  /// trials contribute only their store-load time). Observational only —
  /// exported by sweep::write_telemetry_json, never part of the CSV.
  obs::TrialTelemetry telemetry;

  /// Trial-level worker-pool stats (threads > 1 path; zero when trials
  /// ran inline on the caller). Busy time is tracked only while
  /// obs::enabled().
  util::ThreadPool::PoolStats trial_pool{};

  bool all_ok() const { return failures == 0; }

  /// Writes the summary CSV (ResultSink schema; no wall-clock columns).
  void write_csv(const std::string& path) const;

  /// Aligned console table of all trials.
  [[nodiscard]] std::string render_table() const;

  /// First trial matching `predicate`, or nullptr.
  template <typename Predicate>
  const TrialResult* find(Predicate predicate) const {
    for (const TrialResult& trial : trials) {
      if (predicate(trial)) return &trial;
    }
    return nullptr;
  }

  /// First trial of the (dataset, degree, algorithm) cell, or nullptr —
  /// the lookup every figure/table bench does per report cell.
  const TrialResult* find_trial(const std::string& dataset,
                                std::size_t degree,
                                sim::Algorithm algorithm) const;
};

/// Positions in `trials` sorted by descending estimated cost: nodes ×
/// training rounds (the Γ schedule's for the SkipTrain family) ×
/// local_steps × batch_size × compact_model parameters. The sort is
/// stable, so equal-cost trials keep their index order. Pure in the specs.
[[nodiscard]] std::vector<std::size_t> dispatch_order(
    std::span<const TrialSpec> trials);

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  /// Expands and runs the grid; blocks until every trial has finished.
  SweepReport run(const SweepGrid& grid);

  /// The shared dataset cache (persists across run() calls, so chained
  /// sweeps over the same data reuse the builds).
  DatasetCache& cache() { return cache_; }

 private:
  /// Runs (or, under --resume, loads) one trial. `resumed` is set when
  /// the result came from the trial store instead of a fresh run.
  TrialResult run_trial(const TrialSpec& spec, bool& resumed);

  SweepOptions options_;
  DatasetCache cache_;
};

}  // namespace skiptrain::sweep
