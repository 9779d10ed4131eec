// The synchronous decentralized-learning round engine.
//
// Executes the skeleton shared by D-PSGD, SkipTrain, SkipTrain-constrained
// and Greedy (Algorithm 2 of the paper): per round t,
//
//   1. decide    — liveness (scenario churn, crash outages) and the
//                  RoundScheduler's train decision, serially, with all
//                  energy accounting so the accountant needs no locking;
//   2. train     — selected nodes run E local SGD steps in parallel,
//                  producing x_i^{t-1/2}; non-training nodes keep x_i^{t-1};
//
// then one exchange pipeline for every codec, mask, scenario and fault plan:
//
//   3. stage     — each up sender's plane row, or the k coordinates of a
//                  round-shared mask gathered into a compact pool;
//   4. encode    — one pass per up sender through the wire codec: decoded
//                  only when lossy, CRC32C-framed only under link faults;
//   5. deliver   — edge j → i carries j's image iff j is up and, under
//                  link faults, its frame survives fault::deliver: one
//                  flag per edge, decided once when an edge can be lost;
//   6. aggregate — x_i^t = x_i^{t-1/2} + Σ_{delivered j} W_ij (x̂_j - x_i):
//                  in place on the masked coordinates, otherwise one call
//                  of the tiled dense kernel into the back buffer.
//
// Storage: all n models live as rows of one contiguous ParameterPlane and
// each node's nn::Sequential views its row directly, so training writes
// x^{t-1/2} in place and dense aggregation writes x^t into the back
// buffer, then flips — no get_parameters / set_parameters copies anywhere
// in the per-round path.
//
// Determinism: per-node RNG streams + counter-based scheduler draws +
// column-block-owned aggregation make the result independent of
// worker-thread interleaving.
#pragma once

#include <memory>
#include <span>

#include "core/compression.hpp"
#include "core/scheduler.hpp"
#include "data/dataset.hpp"
#include "energy/accountant.hpp"
#include "fault/fault.hpp"
#include "graph/mixing.hpp"
#include "nn/sequential.hpp"
#include "obs/phase.hpp"
#include "plane/plane.hpp"
#include "quant/codec.hpp"
#include "scenario/scenario.hpp"
#include "sim/node.hpp"

namespace skiptrain::ckpt {
class ImageReader;
class ImageWriter;
}  // namespace skiptrain::ckpt

namespace skiptrain::sim {

namespace detail {
struct EngineIdentity;
}  // namespace detail

struct EngineConfig {
  std::size_t local_steps = 5;   // E
  std::size_t batch_size = 32;   // |ξ|
  float learning_rate = 0.1f;    // η
  std::uint64_t seed = 42;

  /// When non-zero, each round exchanges only k coordinates selected by a
  /// round-shared random mask (core::shared_round_mask); receivers keep
  /// their own values elsewhere. 0 = dense exchange (the paper's setting).
  /// Communication energy is billed at the compressed wire volume (k/dim —
  /// the mask is derived from the shared seed, so no indices travel).
  std::size_t sparse_exchange_k = 0;

  /// Wire format of exchanged rows (quant/codec.hpp). Receivers aggregate
  /// exactly what crossed the wire; their own values stay exact. Composes
  /// with sparse_exchange_k: the k masked values are what gets quantized.
  /// NOTE: the caller is responsible for billing at the matching wire
  /// volume by building the accountant's CommModel via
  /// quant::comm_model_for(exchange_codec).
  quant::Codec exchange_codec = quant::Codec::kIdentity;

  /// Identity of a non-dense topology (ImplicitKRegular::config_hash or a
  /// csr file's Topology::content_hash). Folded into the checkpoint-image
  /// identity so a resume under a different gossip graph is refused; 0
  /// (the dense default) keeps pre-topology-axis images byte-compatible.
  std::uint64_t topology_hash = 0;

  /// Energy-harvesting/churn scenario (scenario/scenario.hpp). Disabled
  /// (the default) keeps every pre-scenario code path — and its bytes —
  /// untouched. Enabled, each node pays its battery for training and
  /// exchange; a down node's model freezes in place and it neither sends
  /// nor receives until recharge.
  scenario::ScenarioConfig scenario{};

  /// Deterministic fault plan (fault/fault.hpp). Disabled (the default)
  /// keeps every pre-fault code path — and its bytes — untouched. With
  /// link faults, every exchanged row ships as a CRC32C frame, and a
  /// dropped or CRC-rejected frame's neighbor mass reverts to self. With
  /// crash faults, seed-derived crash-restart outages mark nodes down
  /// exactly like scenario churn.
  fault::FaultPlan faults{};
};

class RoundEngine {
 public:
  /// All reference parameters must outlive the engine. `prototype`
  /// supplies the shared initial model x⁰ (cloned per node, then bound
  /// onto this engine's parameter plane).
  RoundEngine(const nn::Sequential& prototype, const data::FederatedData& data,
              const graph::MixingMatrix& mixing,
              const core::RoundScheduler& scheduler,
              energy::EnergyAccountant accountant, EngineConfig config);

  struct RoundOutcome {
    core::RoundKind kind = core::RoundKind::kTraining;
    std::size_t nodes_trained = 0;
    double mean_local_loss = 0.0;  // over nodes that trained
  };

  /// Executes one full round; `rounds_executed()` becomes t afterwards.
  RoundOutcome run_round();

  /// Convenience: runs `count` consecutive rounds.
  void run_rounds(std::size_t count);

  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t rounds_executed() const { return round_; }

  nn::Sequential& model(std::size_t node) { return nodes_[node]->model(); }
  std::span<std::unique_ptr<Node>> nodes() { return nodes_; }

  /// Zero-copy view of every node's current parameters x_i^t: row i of the
  /// plane IS node i's model storage. Row spans are invalidated by the
  /// buffer flip inside the next dense run_round().
  plane::ConstMatrixView node_parameters() const {
    return plane_.current().view();
  }

  const plane::ParameterPlane& parameter_plane() const { return plane_; }

  const energy::EnergyAccountant& accountant() const { return accountant_; }
  const core::RoundScheduler& scheduler() const { return scheduler_; }

  /// Battery/churn state when a scenario is enabled; nullptr otherwise.
  const scenario::FleetScenario* scenario() const { return scenario_.get(); }

  /// Lifetime fault telemetry (all zero without a fault plan). Unlike
  /// phase_stats_, these ARE simulation state: delivery counts feed the
  /// summary CSV, so they are checkpointed and restored to keep resumed
  /// runs byte-identical.
  const fault::FaultStats& fault_stats() const { return fault_stats_; }

  /// Per-phase wall time accumulated by run_round (observational only —
  /// never serialized, never fed back into simulation decisions). Phases
  /// run on the trial's driving thread, so accumulation is single-writer.
  const obs::PhaseStats& phase_stats() const { return phase_stats_; }

  /// Exact codec wire bytes every up node shipped so far (dim- and
  /// k-aware, partial int8 blocks included). Deterministic: tallied in
  /// the serial phase-1 loop alongside the energy accounting.
  std::uint64_t wire_bytes_sent() const { return wire_bytes_; }

  /// Serializes the engine's complete mutable simulation state — round
  /// counter, the [n × dim] plane blob (row-arena-contiguous, one write),
  /// accountant tallies/budgets, and per-node RNG/optimizer state — plus
  /// the construction fingerprint (seed, codec, sparse k, scheduler name)
  /// used to validate restore_state. Part of the fleet-image format
  /// (ckpt/fleet_image; callers normally go through save_fleet_image).
  void save_state(ckpt::ImageWriter& writer) const;

  /// Restores state saved by save_state into an engine constructed with
  /// the SAME parameters (prototype, data, mixing, scheduler, accountant
  /// construction, config). Bit-identical resume guarantee: after a
  /// restore at round k, rounds k+1..T reproduce an uninterrupted run
  /// byte-for-byte at any thread count. Throws std::runtime_error when
  /// the image does not match this engine's construction — that check
  /// runs before anything mutates, but a file corrupted PAST its valid
  /// identity prefix can throw mid-restore, leaving this engine's state
  /// unspecified: discard and rebuild it after a restore failure (as
  /// sim::run_experiment does).
  void restore_state(ckpt::ImageReader& reader);

 private:
  detail::EngineIdentity identity() const;

  const graph::MixingMatrix& mixing_;
  const core::RoundScheduler& scheduler_;
  energy::EnergyAccountant accountant_;
  EngineConfig config_;

  // Double-buffered [n × dim] model storage; models view current() rows.
  plane::ParameterPlane plane_;
  // Compact [n × k] staging pool for the masked sparse exchange.
  plane::RowArena staged_;

  // The wire codec: the configured codec, or the identity codec when link
  // faults alone need rows in QuantizedRow form for framing; null on the
  // float32 fast path. wire_rows_[j] is sender j's encoded payload and,
  // for a lossy codec only, decoded_ (shaped like the stage: dense rows
  // or k masked values) holds its decode — the values receivers consume.
  std::unique_ptr<quant::RowCodec> codec_;
  std::vector<quant::QuantizedRow> wire_rows_;
  plane::RowArena decoded_;

  std::vector<std::unique_ptr<Node>> nodes_;
  std::size_t round_ = 0;

  std::vector<std::uint32_t> round_mask_;  // sparse_exchange_k mode
  std::vector<char> train_flags_;
  std::vector<double> local_losses_;

  // Scenario state (nullptr when config_.scenario is disabled).
  // alive_flags_[i] is node i's liveness THIS round, fixed serially in
  // phase 1 (including mid-round brownouts and fault-plan crash outages)
  // so the parallel phases read an immutable mask. Allocated when either
  // a scenario or a crash-fault schedule can take nodes down.
  std::unique_ptr<scenario::FleetScenario> scenario_;
  std::vector<char> alive_flags_;

  // Link-fault staging (allocated only when link faults are active):
  // frames_[j] is sender j's CRC32C-framed payload this round;
  // link_stats_[i] is receiver i's tally this round (disjoint parallel
  // writes), folded into fault_stats_ serially at the end of each round.
  std::vector<std::vector<std::uint8_t>> frames_;
  std::vector<fault::FaultStats> link_stats_;
  fault::FaultStats fault_stats_;
  // Edge fates of a round that can lose one: a flag per mixing entry.
  std::vector<std::uint8_t> delivered_;

  // Telemetry (observational only; excluded from save_state/restore_state
  // so checkpoint images stay byte-identical with telemetry on or off).
  obs::PhaseStats phase_stats_;
  std::uint64_t wire_bytes_ = 0;
  std::size_t row_wire_bytes_ = 0;  // precomputed exact bytes per exchange
};

}  // namespace skiptrain::sim
