// Shared setup for the bench harnesses that regenerate the paper's tables
// and figures.
//
// Scaling: the paper runs 256 nodes for 1000-3000 rounds with CNNs; the
// default bench configuration uses the same node-count knob but a compact
// model, fewer rounds, and synthetic data so every harness finishes in
// minutes on a laptop. Energy quantities are computed from the canonical
// traces at PAPER scale (they are closed-form, see README.md, "Energy
// traces and budgets"), so Table 2/3 energy columns reproduce exactly
// regardless of the accuracy-side scaling.
// Pass --nodes/--rounds/--full to move toward paper scale.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/skiptrain.hpp"
#include "obs/trace.hpp"
#include "sweep/telemetry.hpp"

namespace skiptrain::bench {

struct Workbench {
  data::FederatedData data;
  nn::Sequential model;
  energy::Workload workload = energy::Workload::kCifar10;
  std::size_t paper_rounds = 1000;  // T in Table 1
};

/// Runs `step` and returns its result. An exception (a malformed flag, an
/// unknown preset or dataset) prints its message and exits 2 instead of
/// escaping main() through std::terminate.
template <typename Step>
auto or_exit(Step&& step) -> decltype(step()) {
  try {
    return step();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
}

/// Every harness parses its flags here, so a bad flag exits 2.
inline void parse_flags(util::ArgParser& args, int argc, char** argv) {
  or_exit([&] { args.parse(argc, argv); });
}

/// Standard flags shared by the experiment harnesses. Harnesses with many
/// inner runs (e.g. the Figure 3 grid) pass smaller defaults.
inline void add_common_flags(util::ArgParser& args,
                             std::int64_t default_nodes = 64,
                             std::int64_t default_rounds = 200) {
  args.add_int("nodes", default_nodes,
               "number of simulated nodes (paper: 256)");
  args.add_int("rounds", default_rounds, "total rounds T (paper: 1000/3000)");
  args.add_int("local-steps", 10, "local SGD steps E per training round");
  args.add_int("batch", 16, "mini-batch size");
  args.add_double("lr", 0.1, "SGD learning rate");
  args.add_int("eval-every", 0,
               "evaluation cadence in rounds (0 = harness default)");
  args.add_int("eval-samples", 600, "samples used per evaluation (0 = all)");
  args.add_int("seed", 42, "master seed");
  args.add_flag("full", "paper-scale run: 256 nodes, paper round counts");
}

/// Flags for harnesses that execute their grid on the sweep runner. Only
/// those harnesses register them — on a serial bench they would be no-ops.
/// The checkpoint trio makes any such harness crash-resumable: kill it
/// mid-grid, rerun with --resume, and the summary CSV comes out
/// byte-identical to an uninterrupted run.
inline void add_sweep_flags(util::ArgParser& args) {
  args.add_int("threads", 0,
               "concurrent sweep trials (0 = hardware threads, 1 = serial)");
  args.add_string("checkpoint-dir", "",
                  "directory for per-trial results + fleet images "
                  "(enables crash-resumable sweeps)");
  args.add_int("checkpoint-every", 0,
               "also write an in-flight fleet image every N rounds "
               "(0 = trial granularity only)");
  args.add_flag("resume",
                "skip completed trials and re-enter in-flight ones from "
                "their last fleet image");
  args.add_int("keep-generations", 0,
               "in-flight fleet-image generations each trial retains; "
               "--resume falls back to the newest one that validates "
               "(0 = grid default)");
  args.add_string("trace-out", "",
                  "stream phase spans to this Chrome trace-event JSON "
                  "(load in Perfetto); observational only — result bytes "
                  "are identical with tracing on or off");
  args.add_string("telemetry-out", "",
                  "write runtime telemetry JSON here (harnesses with a "
                  "summary CSV default to <csv>.telemetry.json)");
}

/// Reads a count-valued flag, rejecting negatives with a clean exit —
/// an unchecked cast would wrap them to astronomically large unsigneds.
inline std::size_t flag_size(const util::ArgParser& args,
                             const std::string& name) {
  const std::int64_t value = args.get_int(name);
  if (value < 0) {
    std::fprintf(stderr, "--%s must be >= 0\n", name.c_str());
    std::exit(2);
  }
  return static_cast<std::size_t>(value);
}

/// Reads --seed, rejecting negatives the same way: a cast would wrap -1
/// to 2^64 - 1.
inline std::uint64_t flag_seed(const util::ArgParser& args) {
  return static_cast<std::uint64_t>(flag_size(args, "seed"));
}

/// Fills the sweep-preset knobs from the common flags. The flag defaults
/// match the preset defaults, so an untouched flag defers to the preset.
/// Callers with a --dataset flag set params.dataset themselves.
inline sweep::PresetParams preset_params_from_flags(
    const util::ArgParser& args) {
  sweep::PresetParams params;
  params.nodes = flag_size(args, "nodes");
  params.rounds = flag_size(args, "rounds");
  params.local_steps = flag_size(args, "local-steps");
  params.batch = flag_size(args, "batch");
  params.learning_rate = args.get_double("lr");
  params.eval_every = flag_size(args, "eval-every");
  params.eval_samples = flag_size(args, "eval-samples");
  params.seed = flag_seed(args);
  params.full = args.get_flag("full");
  return params;
}

/// Report-cell lookup with uniform failure reporting: returns the ok
/// trial for (dataset, degree, algorithm), or prints why it is unusable
/// to stderr and returns nullptr.
inline const sweep::TrialResult* require_cell(const sweep::SweepReport& report,
                                              const std::string& dataset,
                                              std::size_t degree,
                                              sim::Algorithm algorithm) {
  const sweep::TrialResult* trial =
      report.find_trial(dataset, degree, algorithm);
  if (trial == nullptr || !trial->ok()) {
    std::fprintf(stderr, "%s %zu-regular %s: %s\n", dataset.c_str(), degree,
                 sim::algorithm_name(algorithm),
                 trial != nullptr ? trial->error.c_str() : "trial missing");
    return nullptr;
  }
  return trial;
}

/// make_preset with CLI-grade error handling: a bad --dataset (or other
/// invalid preset knob) prints the message and exits 2.
inline sweep::SweepGrid make_preset_checked(
    const std::string& name, const sweep::PresetParams& params) {
  return or_exit([&] { return sweep::make_preset(name, params); });
}

/// Reads the sweep-runner flags (add_sweep_flags) for `grid`: --threads
/// sets the concurrency, and grid config-file values fill in whatever the
/// checkpoint flags leave unset. A negative count exits 2, so harnesses
/// call this before they print anything.
inline sweep::SweepOptions sweep_options_from_flags(
    const util::ArgParser& args, const sweep::SweepGrid& grid,
    bool verbose = false) {
  sweep::SweepOptions options;
  options.threads = flag_size(args, "threads");
  options.verbose = verbose;
  options.checkpoint_dir = args.get_string("checkpoint-dir");
  if (options.checkpoint_dir.empty()) {
    options.checkpoint_dir = grid.checkpoint_dir;
  }
  options.checkpoint_every = flag_size(args, "checkpoint-every");
  if (options.checkpoint_every == 0) {
    options.checkpoint_every = grid.checkpoint_every;
  }
  options.resume = args.get_flag("resume") || grid.resume;
  options.keep_generations = flag_size(args, "keep-generations");
  if (options.keep_generations == 0) {
    options.keep_generations = grid.keep_generations;
  }
  return options;
}

/// Runs `grid` on the sweep runner, streaming phase spans to `trace_path`
/// (--trace-out) when it is not empty.
inline sweep::SweepReport run_sweep(const sweep::SweepGrid& grid,
                                    const sweep::SweepOptions& options,
                                    const std::string& trace_path) {
  // Tracing wraps the whole sweep so the file closes complete even when
  // the harness keeps running afterwards; SKIPTRAIN_TRACE-initiated traces
  // stay process-lifetime and are finalized at exit instead.
  const bool own_trace = !trace_path.empty() && obs::start_tracing(trace_path);
  sweep::SweepReport report = sweep::SweepRunner(options).run(grid);
  if (own_trace) obs::stop_tracing();
  return report;
}

/// Writes the report's telemetry JSON to --telemetry-out, or next to the
/// summary CSV when the flag is unset and a CSV path is known. Export
/// failures warn and continue — telemetry must never fail a bench run.
inline void export_telemetry(const sweep::SweepReport& report,
                             const util::ArgParser& args,
                             const std::string& csv_path = "") {
  std::string path = args.get_string("telemetry-out");
  if (path.empty() && !csv_path.empty()) {
    path = sweep::default_telemetry_path(csv_path);
  }
  if (path.empty()) return;
  try {
    sweep::write_telemetry_json(path, report);
    std::printf("Telemetry written to %s\n", path.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "telemetry export failed: %s\n", e.what());
  }
}

inline std::size_t flag_nodes(const util::ArgParser& args) {
  return args.get_flag("full") ? 256 : flag_size(args, "nodes");
}

/// Builds a synthetic workload + initialised compact model through
/// sweep::build_workload, the one place a DataConfig maps onto the data
/// factories (60 samples per node, a 1200-sample test pool).
inline Workbench make_workbench(const util::ArgParser& args,
                                const std::string& dataset) {
  sweep::DataConfig config;
  config.dataset = dataset;
  config.nodes = flag_nodes(args);
  config.seed = flag_seed(args);
  const auto workload = sweep::build_workload(config);
  Workbench bench;
  bench.data = workload->data;
  bench.model = workload->prototype.clone();
  bench.workload = workload->workload;
  bench.paper_rounds = energy::workload_spec(bench.workload).total_rounds;
  return bench;
}

/// Builds the synthetic CIFAR-10 workload + compact model.
inline Workbench make_cifar_bench(const util::ArgParser& args) {
  return make_workbench(args, "cifar");
}

/// Builds the synthetic FEMNIST workload + compact model.
inline Workbench make_femnist_bench(const util::ArgParser& args) {
  return make_workbench(args, "femnist");
}

inline Workbench make_bench(const util::ArgParser& args,
                            energy::Workload workload) {
  return workload == energy::Workload::kCifar10 ? make_cifar_bench(args)
                                                : make_femnist_bench(args);
}

/// Fills RunOptions from the common flags.
inline sim::RunOptions options_from_flags(const util::ArgParser& args,
                                          const Workbench& bench) {
  sim::RunOptions options;
  options.total_rounds = args.get_flag("full") ? bench.paper_rounds
                                               : flag_size(args, "rounds");
  options.local_steps = flag_size(args, "local-steps");
  options.batch_size = flag_size(args, "batch");
  options.learning_rate = static_cast<float>(args.get_double("lr"));
  options.eval_every = flag_size(args, "eval-every");
  options.eval_max_samples = flag_size(args, "eval-samples");
  options.seed = flag_seed(args);
  options.workload = bench.workload;
  options.budget_scale = static_cast<double>(options.total_rounds) /
                         static_cast<double>(bench.paper_rounds);
  return options;
}

/// Closed-form 256-node training energy of the paper's configuration (Wh):
/// mean trace energy x 256 x training_rounds.
inline double paper_scale_energy_wh(energy::Workload workload,
                                    std::size_t training_rounds) {
  return energy::mean_energy_per_round_mwh(workload) * 256.0 *
         static_cast<double>(training_rounds) / 1000.0;
}

inline void print_header(const std::string& title, const std::string& paper) {
  std::printf("=====================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("  paper reference: %s\n", paper.c_str());
  std::printf("=====================================================\n");
}

}  // namespace skiptrain::bench
