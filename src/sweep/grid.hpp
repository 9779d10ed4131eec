// Declarative parameter grids for the sweep subsystem.
//
// A SweepGrid names the axes an experiment varies (algorithm, Γ schedule,
// topology degree, node count, dataset, compression k, replicate seeds) and
// expands their cross product into a deterministic, index-ordered list of
// TrialSpecs. Empty axes inherit the single value from `base`/`data`, so a
// grid only spells out what it actually sweeps:
//
//   sweep::SweepGrid grid;
//   grid.base.total_rounds = 280;
//   grid.degrees = {6, 8, 10};
//   grid.gamma_syncs = {1, 2, 3, 4};
//   grid.gamma_trains = {1, 2, 3, 4};
//   auto report = sweep::SweepRunner().run(grid);   // 48 trials
//
// Expansion nests, outer to inner: datasets, node_counts, seeds,
// algorithms, degrees, gamma_syncs, gamma_trains, sparse_ks, codecs,
// scenarios, topologies, faults. The trial index is the row order of
// every downstream CSV, independent of which worker finishes first.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "energy/device.hpp"
#include "quant/codec.hpp"
#include "sim/runner.hpp"

namespace skiptrain::sweep {

/// Everything that identifies a dataset build (and therefore a cache
/// entry): workload family, partition size, and the generator seed, which
/// also seeds the shared model initialisation.
struct DataConfig {
  std::string dataset = "cifar";      // "cifar" | "femnist"
  std::size_t nodes = 64;
  std::size_t samples_per_node = 60;  // mean per node for femnist
  std::size_t test_pool = 1200;       // split 50/50 into validation/test
  std::uint64_t seed = 42;

  bool operator==(const DataConfig&) const = default;

  /// Stable string form; doubles as the dataset-cache key.
  [[nodiscard]] std::string key() const;
};

/// Maps "cifar"/"femnist" to the energy workload. Throws on other names.
[[nodiscard]] energy::Workload workload_for(const std::string& dataset);

/// Tuned (Γtrain, Γsync) per topology degree from the paper's §4.3 grid
/// search: 6-regular -> (4,4); 8-regular -> (3,3); 10-regular -> (4,2).
[[nodiscard]] std::pair<std::size_t, std::size_t> tuned_gammas(
    std::size_t degree);

/// One fully-resolved trial: a dataset build plus the run options.
struct TrialSpec {
  std::size_t index = 0;
  DataConfig data;
  sim::RunOptions options;
};

struct SweepGrid {
  std::string name = "sweep";

  /// Defaults for every knob a trial does not sweep.
  sim::RunOptions base;
  DataConfig data;

  // Axes. An empty axis contributes the single value from base/data.
  std::vector<std::string> datasets;
  std::vector<std::size_t> node_counts;
  std::vector<std::uint64_t> seeds;  // replicate seeds (run + data)
  std::vector<sim::Algorithm> algorithms;
  std::vector<std::size_t> degrees;
  std::vector<std::size_t> gamma_syncs;
  std::vector<std::size_t> gamma_trains;
  std::vector<std::size_t> sparse_ks;
  std::vector<quant::Codec> codecs;  // exchange wire formats
  // Named energy-harvesting/churn scenarios (scenario::make_config
  // tokens: "none", "solar", "churn", "trace:<path>").
  std::vector<std::string> scenarios;
  // Gossip-graph sources (graph::TopologySpec tokens: "dense",
  // "kregular:<k>", "csr:<path>").
  std::vector<std::string> topologies;
  // Fault-plan specs (fault::make_plan tokens: "none",
  // "drop:0.05,corrupt:0.01,crash:0.004", ...).
  std::vector<std::string> faults;

  /// When set, each trial's budget_scale becomes total_rounds divided by
  /// the workload's paper horizon, so per-device budgets bind at the same
  /// proportion of a scaled run as in the paper (what every bench harness
  /// did by hand via options_from_flags).
  bool scale_budgets_to_paper = false;

  /// Sweep-session checkpoint settings from config files (`checkpoint-dir`
  /// / `checkpoint-every` / `resume` keys) — not grid axes; they map onto
  /// SweepOptions (CLI flags override them in sweep_main).
  std::string checkpoint_dir{};
  std::size_t checkpoint_every = 0;
  bool resume = false;
  /// Per-trial fleet-image generations to retain (`keep-generations` key);
  /// a resume falls back to the newest generation that validates.
  std::size_t keep_generations = 1;

  // Per-trial rules for what a cross product cannot express, applied by
  // expand() in this order and before budget scaling: the workload's
  // paper horizon as total_rounds (`rounds = paper`), tuned_gammas(degree)
  // for the SkipTrain family (`tuned-gammas`), and eval_every =
  // max(total_rounds / N, 1) (`eval-every = total/N`; 0 = off).
  bool paper_horizon = false;
  bool use_tuned_gammas = false;
  std::size_t eval_every_divisor = 0;

  /// The cross product's size; throws std::overflow_error when it does
  /// not fit in a size_t.
  [[nodiscard]] std::size_t trial_count() const;

  /// Expands the cross product in deterministic nesting order. A grid of
  /// more than kMaxTrials trials throws std::length_error instead.
  [[nodiscard]] std::vector<TrialSpec> expand() const;
};

/// The most trials expand() materialises (about 1 KB each); no sweep runs
/// that many, and a config typo must not exhaust memory.
inline constexpr std::size_t kMaxTrials = std::size_t{1} << 16;

}  // namespace skiptrain::sweep
