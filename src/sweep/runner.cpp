#include "sweep/runner.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <optional>
#include <thread>
#include <utility>

#include "ckpt/fleet_image.hpp"
#include "ckpt/trial_store.hpp"
#include "core/scheduler.hpp"
#include "obs/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace skiptrain::sweep {

void SweepReport::write_csv(const std::string& path) const {
  write_summary_csv(path, trials);
}

std::string SweepReport::render_table() const {
  return render_summary_table(trials);
}

const TrialResult* SweepReport::find_trial(const std::string& dataset,
                                           std::size_t degree,
                                           sim::Algorithm algorithm) const {
  return find([&](const TrialResult& trial) {
    return trial.spec.data.dataset == dataset &&
           trial.spec.options.degree == degree &&
           trial.spec.options.algorithm == algorithm;
  });
}

namespace {

/// A zero Γ (which a config file can ask for) costs 0: the trial fails at
/// once, and the failure belongs in its row, not in dispatch.
double estimated_cost(const TrialSpec& spec) {
  const sim::RunOptions& options = spec.options;
  double training_rounds = static_cast<double>(options.total_rounds);
  const bool gamma_schedule =
      options.algorithm == sim::Algorithm::kSkipTrain ||
      options.algorithm == sim::Algorithm::kSkipTrainConstrained ||
      options.algorithm == sim::Algorithm::kSkipTrainHarvest;
  if (gamma_schedule) {
    if (options.gamma_train == 0 || options.gamma_sync == 0) return 0.0;
    training_rounds *= core::training_round_fraction(
        core::SkipTrainScheduler(options.gamma_train, options.gamma_sync),
        options.total_rounds);
  }
  return static_cast<double>(spec.data.nodes) * training_rounds *
         static_cast<double>(options.local_steps * options.batch_size) *
         static_cast<double>(compact_model(spec.data).num_parameters());
}

}  // namespace

std::vector<std::size_t> dispatch_order(std::span<const TrialSpec> trials) {
  std::vector<double> cost(trials.size());
  std::vector<std::size_t> order(trials.size());
  for (std::size_t i = 0; i < trials.size(); ++i) {
    cost[i] = estimated_cost(trials[i]);
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return cost[a] > cost[b];
                   });
  return order;
}

SweepRunner::SweepRunner(SweepOptions options) : options_(std::move(options)) {}

TrialResult SweepRunner::run_trial(const TrialSpec& spec, bool& resumed) {
  const obs::StopWatch watch;
  TrialResult trial;
  trial.spec = spec;
  resumed = false;

  const bool checkpointing = !options_.checkpoint_dir.empty();
  const std::string base =
      checkpointing ? ckpt::trial_file_base(options_.checkpoint_dir,
                                            spec.index)
                    : std::string();
  if (checkpointing && options_.resume) {
    TrialResult stored;
    // Only SUCCESSFUL persisted results short-circuit the trial: a stored
    // failure is retried instead, so transient errors (memory pressure,
    // I/O hiccups) self-heal on resume while deterministic failures just
    // reproduce the same failed row.
    const ckpt::TrialLoadStatus status =
        ckpt::load_trial_result_status(spec, base + ".result", stored);
    if (status == ckpt::TrialLoadStatus::kLoaded && stored.ok()) {
      trial = std::move(stored);
      resumed = true;
      trial.wall_seconds = watch.seconds();
      if (options_.verbose) {
        std::fprintf(stderr, "[sweep] trial %zu/%s %s resumed from %s\n",
                     spec.index, spec.data.dataset.c_str(),
                     sim::algorithm_name(spec.options.algorithm),
                     (base + ".result").c_str());
      }
      return trial;
    }
    if (status == ckpt::TrialLoadStatus::kCorrupt) {
      // Quarantine, don't abort: keep the damaged entry for post-mortems
      // under `<path>.bad` (clobbering any previous quarantine) and
      // recompute the trial. A bit-flipped or torn store file must never
      // kill a 10,000-trial resume.
      std::error_code ec;
      std::filesystem::rename(base + ".result", base + ".result.bad", ec);
      std::fprintf(stderr,
                   "[sweep] trial %zu: corrupt result %s quarantined to "
                   "%s.bad; recomputing\n",
                   spec.index, (base + ".result").c_str(),
                   (base + ".result").c_str());
    }
  }

  try {
    // Bill the dataset fetch (a build on cache miss, a ref-bump on hit) to
    // the trial's setup phase so per-phase times account for the whole
    // trial wall-clock, not just run_experiment's interior.
    const std::uint64_t fetch_start = obs::now_ns();
    const std::shared_ptr<const SharedWorkload> workload =
        cache_.get(spec.data);
    const std::uint64_t fetch_ns = obs::now_ns() - fetch_start;
    if (checkpointing) {
      // In-flight images let --resume re-enter this trial mid-run after
      // a crash; the spec the sink/CSV see stays untouched.
      TrialSpec augmented = spec;
      augmented.options.checkpoint_path = base + ".ckpt";
      augmented.options.checkpoint_every = options_.checkpoint_every;
      augmented.options.resume = options_.resume;
      augmented.options.keep_generations = options_.keep_generations;
      // Stamped into every image and validated on resume, so an edited
      // grid can never resume a stale in-flight image for this slot.
      augmented.options.checkpoint_fingerprint =
          ckpt::trial_fingerprint(spec);
      trial.result = sim::run_experiment(workload->data, workload->prototype,
                                         augmented.options);
    } else {
      trial.result = sim::run_experiment(workload->data, workload->prototype,
                                         spec.options);
    }
    trial.result.telemetry.phases.add(obs::Phase::kSetup, fetch_ns);
  } catch (const std::exception& e) {
    trial.status = TrialStatus::kFailed;
    trial.error = e.what();
  } catch (...) {
    trial.status = TrialStatus::kFailed;
    trial.error = "unknown exception";
  }
  trial.wall_seconds = watch.seconds();
  if (checkpointing) {
    // Persistence failures (full disk, permissions) must not tear down
    // the sweep: the in-memory result is intact and still reaches the
    // summary CSV — only this trial's resumability is lost.
    try {
      ckpt::write_trial_result(trial, base + ".result");
      ckpt::append_manifest(options_.checkpoint_dir, spec.index, trial.ok());
      // Images (all retained generations) are no longer needed.
      ckpt::remove_generations(base + ".ckpt", options_.keep_generations);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[sweep] trial %zu: cannot persist result: %s\n",
                   spec.index, e.what());
    }
  }
  if (options_.verbose) {
    std::fprintf(stderr, "[sweep] trial %zu/%s %s (%.2fs)%s%s\n", spec.index,
                 spec.data.dataset.c_str(),
                 sim::algorithm_name(spec.options.algorithm),
                 trial.wall_seconds, trial.ok() ? "" : " FAILED: ",
                 trial.ok() ? "" : trial.error.c_str());
  }
  return trial;
}

SweepReport SweepRunner::run(const SweepGrid& grid) {
  const obs::StopWatch watch;
  const std::vector<TrialSpec> trials = grid.expand();
  ResultSink sink(trials.size());
  if (!options_.checkpoint_dir.empty()) {
    std::filesystem::create_directories(options_.checkpoint_dir);
  }
  std::atomic<std::size_t> resumed_trials{0};
  util::ThreadPool::PoolStats trial_pool_stats{};
  const auto record_one = [&](const TrialSpec& spec) {
    bool resumed = false;
    TrialResult trial = run_trial(spec, resumed);
    if (resumed) resumed_trials.fetch_add(1, std::memory_order_relaxed);
    sink.record(std::move(trial));
  };

  if (options_.threads == 1) {
    // Inline execution: the single trial in flight keeps the engine's
    // node-level parallelism.
    for (const TrialSpec& spec : trials) {
      record_one(spec);
    }
  } else {
    const std::size_t hardware =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    // Never more workers than trials (this also tames a nonsense request
    // like size_t(-1) from a mis-cast negative CLI value).
    const std::size_t requested =
        options_.threads != 0 ? options_.threads : hardware;
    const std::size_t workers =
        std::min(requested, std::max<std::size_t>(trials.size(), 1));
    // Pin each trial's node-level loops to its worker only when trial
    // parallelism already saturates the machine; a small grid on a big
    // machine keeps node-level parallelism so surplus cores stay busy.
    const bool pin_serial = workers >= hardware;
    util::ThreadPool pool(workers);
    for (const std::size_t i : dispatch_order(trials)) {
      pool.submit([&record_one, spec = trials[i], pin_serial] {
        std::optional<util::ThreadPool::ScopedForceSerial> serial_scope;
        if (pin_serial) serial_scope.emplace();
        record_one(spec);
      });
    }
    pool.wait_idle();
    trial_pool_stats = pool.stats();
  }

  SweepReport report;
  report.name = grid.name;
  report.trials = sink.take_rows();  // also flags any missing slots
  report.failures = sink.failures();
  report.resumed_trials = resumed_trials.load(std::memory_order_relaxed);
  report.wall_seconds = watch.seconds();
  report.trial_pool = trial_pool_stats;
  for (const TrialResult& trial : report.trials) {
    if (trial.ok()) report.telemetry.merge(trial.result.telemetry);
  }
  return report;
}

}  // namespace skiptrain::sweep
