// Trace-driven heterogeneity & energy-harvesting scenarios.
//
// The paper's intermittent-training setting assumes nodes always have
// energy when the schedule says "train". This layer drops that
// assumption: each node carries a battery that charges from a harvest
// process (synthetic solar/diurnal, or a CSV trace of a real deployment)
// and pays for every training and exchange it performs. A node whose
// charge falls below the dropout threshold goes DOWN — its model freezes
// in place (the checkpointable per-node state the ckpt layer already
// serializes) and it neither trains, sends, nor receives — until harvest
// lifts the charge back over the re-entry threshold (hysteresis, so a
// node hovering at the threshold does not flap every round).
//
// Determinism contract (same as the schedulers): every stochastic draw —
// per-node panel efficiency, per-(node, round) weather — comes from
// util::stateless_uniform keyed on (seed, node, t), so harvest is a pure
// function of (config, seed, node, t). Battery evolution is sequential
// per node in round order. Simulations with scenarios therefore stay
// byte-identical across thread counts and bit-identical across
// kill/resume (FleetScenario state rides inside the engine's fleet
// image).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "scenario/trace.hpp"

namespace skiptrain::ckpt {
class ImageReader;
class ImageWriter;
}  // namespace skiptrain::ckpt

namespace skiptrain::scenario {

enum class HarvestKind : std::uint8_t {
  kNone = 0,   // battery only: drains, never recharges
  kSolar = 1,  // synthetic diurnal generator (clipped sine x weather noise)
  kTrace = 2,  // replay a HarvestTrace (CSV)
};

/// Value-type description of a scenario. Battery and harvest magnitudes
/// are expressed in units of each node's OWN per-round training energy,
/// so one config scales across workloads and heterogeneous fleets.
struct ScenarioConfig {
  bool enabled = false;
  HarvestKind harvest = HarvestKind::kSolar;

  // Battery (per-round training-energy units).
  double battery_rounds = 24.0;  // capacity
  double initial_soc = 1.0;      // starting state of charge in [0, 1]
  double dropout_soc = 0.02;     // below -> node goes down
  double reentry_soc = 0.25;     // back above -> node re-enters

  // Synthetic solar harvest (kSolar): mean harvest per round over a full
  // diurnal cycle, the cycle length, multiplicative weather noise
  // amplitude, and the per-node panel efficiency spread.
  double harvest_rounds_mean = 0.6;
  double period_rounds = 24.0;
  double weather_noise = 0.5;
  double panel_spread = 0.5;

  // Trace replay (kTrace). trace_scale multiplies the trace's raw
  // harvest_mwh values (traces carry absolute energies; the battery is
  // still sized in training-round units).
  std::shared_ptr<const HarvestTrace> trace;
  std::string trace_path;  // provenance, for tokens/errors only
  double trace_scale = 1.0;

  /// 64-bit fingerprint over every field (including trace content).
  /// Stored in checkpoint identities so an image written under one
  /// scenario can never resume into another.
  [[nodiscard]] std::uint64_t config_hash() const;

  /// Throws std::invalid_argument on malformed configs (thresholds
  /// outside [0,1], reentry < dropout, kTrace without a trace, ...).
  void validate() const;
};

/// Named scenarios for sweep axes and config files:
///   "" | "none"     — disabled (the paper's always-powered setting)
///   "solar"         — solar-harvesting sensor fleet; generous batteries,
///                     nodes brown out at night and re-enter by day
///   "churn"         — tight batteries + heavy weather: frequent mid-run
///                     dropout/re-entry (the phone-fleet stress case)
///   "trace:<path>"  — replay the CSV harvest trace at <path>
/// Throws std::invalid_argument on unknown names (and propagates trace
/// load errors).
[[nodiscard]] ScenarioConfig make_config(const std::string& name);

/// The canonical token for CSV columns / fingerprints ("" -> "none").
[[nodiscard]] std::string scenario_token(const std::string& name);

/// Runtime battery/churn state of a fleet under a ScenarioConfig.
/// The engine drives it with begin_round (every node steps once per
/// round), gates work on alive(), and pays for work through try_spend().
class FleetScenario {
 public:
  /// `train_round_mwh[i]` is node i's per-round training energy — the
  /// unit the config's battery/harvest magnitudes scale from.
  FleetScenario(const ScenarioConfig& config, std::size_t num_nodes,
                std::uint64_t seed, std::vector<double> train_round_mwh);

  std::size_t num_nodes() const { return charge_mwh_.size(); }

  /// Advances every node to round t (harvest arrives, churn thresholds
  /// apply). Synchronous engines call this once at the top of round t.
  void begin_round(std::size_t t);

  /// Advances one node to step t (begin_round's per-node body).
  void step_node(std::size_t node, std::size_t t);

  bool alive(std::size_t node) const { return down_[node] == 0; }

  /// Spends `mwh` from the node's battery. Insufficient charge is a
  /// brownout: the battery drains to zero, the node goes down, and the
  /// call returns false — the caller must abandon the work it was about
  /// to bill.
  bool try_spend(std::size_t node, double mwh);

  double charge_mwh(std::size_t node) const { return charge_mwh_[node]; }
  double capacity_mwh(std::size_t node) const { return capacity_mwh_[node]; }

  /// Pure harvest sample for (node, t) under this config — no state read
  /// or written; exposed for benches and tests.
  double harvest_sample_mwh(std::size_t node, std::size_t t) const;

  // Availability telemetry (counted at step granularity).
  std::size_t steps_total() const { return steps_total_; }
  std::size_t down_steps_total() const { return down_steps_total_; }
  std::size_t brownouts_total() const { return brownouts_total_; }
  double harvested_mwh_total() const { return harvested_mwh_total_; }
  /// 1 - down-steps / steps (1.0 before any step).
  double mean_availability() const;

  std::uint64_t config_hash() const { return config_hash_; }

  /// Serializes the complete mutable state (charges, down flags,
  /// telemetry counters) — construction parameters are identity, not
  /// state, and must match at restore time (enforced upstream via
  /// config_hash in the engine identity).
  void save_state(ckpt::ImageWriter& writer) const;
  void restore_state(ckpt::ImageReader& reader);

 private:
  ScenarioConfig config_;
  std::uint64_t seed_ = 0;
  std::uint64_t config_hash_ = 0;

  // Per-node constants derived at construction.
  std::vector<double> capacity_mwh_;
  std::vector<double> harvest_unit_mwh_;  // mean per-round harvest

  // Mutable state (everything save_state captures).
  std::vector<double> charge_mwh_;
  std::vector<char> down_;
  std::size_t steps_total_ = 0;
  std::size_t down_steps_total_ = 0;
  std::size_t brownouts_total_ = 0;
  double harvested_mwh_total_ = 0.0;
};

}  // namespace skiptrain::scenario
