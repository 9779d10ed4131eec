// High-level experiment API: one call runs a full decentralized-learning
// experiment (dataset -> topology -> scheduler -> engine -> metrics) and
// returns the recorded series. This is the entry point the examples and
// bench harnesses build on.
#pragma once

#include <cstdint>
#include <string>

#include "core/scheduler.hpp"
#include "data/dataset.hpp"
#include "energy/device.hpp"
#include "metrics/recorder.hpp"
#include "nn/sequential.hpp"
#include "obs/phase.hpp"
#include "quant/codec.hpp"

namespace skiptrain::sim {

enum class Algorithm {
  kDpsgd,                 // Algorithm 1 baseline
  kDpsgdAllReduce,        // D-PSGD with global averaging (Figure 1 upper bound)
  kSkipTrain,             // §3.1
  kSkipTrainConstrained,  // §3.2
  kGreedy,                // §3.2 baseline
  kSkipTrainHarvest,      // harvest-aware: train probability rides daylight
  kDealDecremental,       // DEAL-style decremental participation
};

[[nodiscard]] const char* algorithm_name(Algorithm algorithm);

struct RunOptions {
  Algorithm algorithm = Algorithm::kSkipTrain;
  std::size_t gamma_train = 4;  // Γtrain (SkipTrain variants)
  std::size_t gamma_sync = 4;   // Γsync
  std::size_t total_rounds = 240;

  // Topology: random d-regular graph (the paper's setting).
  std::size_t degree = 6;

  // Topology axis (graph::TopologySpec): "" | "dense" keeps the paper's
  // materialized random d-regular graph above; "kregular:<k>" switches to
  // the implicit seed-derived k-regular circulant (O(k) topology state,
  // the large-fleet path); "csr:<path>" loads an arbitrary sparse graph
  // from a CSR file. Non-dense topologies bill
  // exchange energy at their actual per-node neighbor counts and are
  // incompatible with Algorithm::kDpsgdAllReduce.
  std::string topology{};

  // Local training (Table 1 analogues; defaults are the scaled config).
  std::size_t local_steps = 5;
  std::size_t batch_size = 32;
  float learning_rate = 0.1f;

  // Optional masked sparse exchange: k coordinates per round from a
  // round-shared random mask (0 = dense, the paper's setting).
  std::size_t sparse_exchange_k = 0;

  // Wire codec for exchanged rows (identity = float32, the paper's
  // setting). Selects both the engine's staging-boundary encode/decode and
  // the energy model's bytes-per-param (quant::comm_model_for), so the
  // billed wire volume always matches what the codec ships.
  quant::Codec exchange_codec = quant::Codec::kIdentity;

  // Energy model: which paper workload's traces/budgets to charge.
  energy::Workload workload = energy::Workload::kCifar10;

  // Named energy-harvesting/churn scenario (scenario::make_config):
  // "" | "none" (always powered), "solar", "churn", or "trace:<path>".
  // Enabled scenarios give every node a battery fed by the harvest
  // process; nodes brown out, freeze, and re-enter as charge allows.
  std::string scenario{};

  // Deterministic fault plan (fault::make_plan): "" | "none" keeps every
  // path lossless and bitwise identical to a fault-free build;
  // "drop:P,corrupt:P,dup:P,crash:P,io:P,..." injects seed-derived
  // per-link message loss/corruption/duplication, node crash-restarts,
  // and checkpoint-write failures. All draws are stateless functions of
  // (seed, round, src, dst), so faulted runs stay bit-identical across
  // thread counts and through kill/resume.
  std::string faults{};

  // Scales the canonical τ_i budgets (Table 2). Scaled-horizon experiments
  // should set this to total_rounds / paper_total_rounds so that budgets
  // bind at the same proportion of the run as in the paper.
  double budget_scale = 1.0;

  // Evaluation.
  std::size_t eval_every = 0;        // 0 = every Γtrain+Γsync rounds (paper)
  std::size_t eval_max_samples = 1000;  // cap eval sweep for speed (0 = all)
  bool eval_on_validation = false;   // default: test split
  bool evaluate_allreduce = false;   // also score the averaged model
  bool track_consensus = false;

  // Checkpointing (ckpt/fleet_image). When `checkpoint_path` is set and
  // `checkpoint_every` > 0, the run writes an experiment image (engine
  // state + recorder series) every checkpoint_every rounds, atomically.
  // With `resume`, an existing image at checkpoint_path is restored and
  // the run continues from its round — producing metrics byte-identical
  // to an uninterrupted run (the intermittent-fleet setting of §3.2
  // applied to the simulator itself). A resume with no image present is
  // simply a fresh run.
  std::string checkpoint_path{};
  std::size_t checkpoint_every = 0;
  bool resume = false;
  // Multi-generation image retention: keep the N most recent images
  // (checkpoint_path, .g1, .g2, ...). A resume falls back to the newest
  // generation that validates, so one corrupt/torn image costs at most
  // checkpoint_every rounds of recomputation. 0/1 = single image.
  std::size_t keep_generations = 1;
  // Opaque identity of THIS run's full configuration, stored in every
  // image and validated on resume: a stale image written under a
  // different configuration (e.g. an edited sweep grid) is ignored and
  // the run starts fresh instead of resuming wrong state. Sweeps pass
  // ckpt::trial_fingerprint; empty disables the check.
  std::string checkpoint_fingerprint{};

  std::uint64_t seed = 42;
};

struct ExperimentResult {
  metrics::Recorder recorder{"unnamed"};
  std::string algorithm;
  std::string dataset;
  std::size_t nodes = 0;
  std::size_t degree = 0;

  double final_mean_accuracy = 0.0;
  double final_std_accuracy = 0.0;
  double final_allreduce_accuracy = 0.0;
  double best_mean_accuracy = 0.0;

  double total_training_wh = 0.0;
  double total_comm_wh = 0.0;
  double fleet_budget_wh = 0.0;  // Σ τ_i · e_i (Table 4's ceiling)

  /// Coordinated training rounds actually scheduled (≤ total_rounds).
  std::size_t coordinated_training_rounds = 0;

  /// Scenario telemetry (the always-powered defaults when no scenario is
  /// active): fraction of node-rounds the fleet was up, node-rounds spent
  /// down, and total energy the harvest process delivered.
  double mean_availability = 1.0;
  std::size_t down_node_rounds = 0;
  double harvested_wh = 0.0;

  /// Fault telemetry (all zero / 1.0 when no fault plan is active):
  /// messages lost outright, frames rejected by the receiver's CRC
  /// check, duplicated deliveries absorbed idempotently, node-rounds
  /// spent in crash outages, and the fraction of attempted deliveries
  /// that arrived intact.
  std::size_t dropped_messages = 0;
  std::size_t corrupt_messages = 0;
  std::size_t duplicated_messages = 0;
  std::size_t crash_down_rounds = 0;
  double delivery_rate = 1.0;

  /// Final per-node test accuracies (index = node id); feeds the §5.1
  /// device-fairness analysis.
  std::vector<double> final_per_node_accuracy;

  /// Runtime telemetry for THIS process's execution of the trial: phase
  /// wall-time breakdown, exact wire bytes, rounds executed. Observational
  /// only — never serialized into trial-store results or checkpoint
  /// images, so a resumed trial reports only the work it re-ran (zero if
  /// served entirely from the store).
  obs::TrialTelemetry telemetry;
};

/// Runs one experiment. `prototype` is the initial model shared by all
/// nodes (initialise it before calling, e.g. with nn::initialize).
ExperimentResult run_experiment(const data::FederatedData& data,
                                const nn::Sequential& prototype,
                                const RunOptions& options);

}  // namespace skiptrain::sim
