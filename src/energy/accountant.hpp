// Per-node energy accounting during a simulation (Eq. 2-3 of the paper)
// plus budget enforcement for the constrained setting (§3.2).
#pragma once

#include <cstddef>
#include <vector>

#include "energy/device.hpp"
#include "energy/fleet.hpp"

namespace skiptrain::energy {

class EnergyAccountant {
 public:
  /// `model_params` and `degree_of_node` drive the communication model.
  EnergyAccountant(Fleet fleet, CommModel comm_model,
                   std::size_t model_params,
                   std::vector<std::size_t> degree_of_node);

  /// Replaces the per-node training budgets (default: the fleet's τ_i).
  /// Lets deployments with non-smartphone energy envelopes — e.g. the UAV
  /// swarm example — impose their own round budgets.
  void set_budgets(std::vector<std::size_t> budgets);

  std::size_t num_nodes() const { return fleet_.num_nodes(); }
  const Fleet& fleet() const { return fleet_; }

  /// Dense model size the communication model bills for full exchanges.
  std::size_t model_params() const { return model_params_; }

  /// Records one local training execution by `node` (adds its per-round
  /// training energy and decrements the remaining budget).
  void record_training(std::size_t node);

  /// Records one sharing+aggregation step by `node` (communication energy;
  /// does not touch the training budget — this is the paper's core
  /// observation: sync rounds are nearly free).
  void record_exchange(std::size_t node);

  /// Same, but for a compressed exchange whose wire volume corresponds to
  /// `effective_params` dense parameters (a masked exchange bills k/dim
  /// of the model, rounded to nearest).
  void record_exchange(std::size_t node, std::size_t effective_params);

  /// What record_training(node) WOULD bill — the scenario engine quotes
  /// this before committing, so a battery brownout can cancel the work
  /// instead of billing energy the node does not have.
  double training_cost_mwh(std::size_t node) const;

  /// What record_exchange(node[, effective_params]) would bill.
  double exchange_cost_mwh(std::size_t node) const;
  double exchange_cost_mwh(std::size_t node,
                           std::size_t effective_params) const;

  /// Remaining training rounds before node i's battery allowance runs out.
  std::size_t remaining_budget(std::size_t node) const;
  bool has_budget(std::size_t node) const {
    return remaining_budget(node) > 0;
  }

  std::size_t training_rounds_executed(std::size_t node) const;

  /// Cumulative energies.
  double node_training_mwh(std::size_t node) const;
  double node_comm_mwh(std::size_t node) const;
  double total_training_wh() const;
  double total_comm_wh() const;
  double total_wh() const { return total_training_wh() + total_comm_wh(); }

  /// Complete mutable state (per-node tallies and remaining budgets) —
  /// everything record_training/record_exchange touch. Fleet checkpoints
  /// capture and restore it so resumed runs bill identically; the
  /// construction parameters (fleet, comm model, degrees) are NOT part of
  /// the state and must match at restore time.
  struct State {
    std::vector<double> training_mwh;
    std::vector<double> comm_mwh;
    std::vector<std::size_t> training_rounds;
    std::vector<std::size_t> budget;
  };

  [[nodiscard]] State capture_state() const;
  /// Throws std::invalid_argument when the state's node count mismatches.
  void restore_state(State state);

 private:
  Fleet fleet_;
  CommModel comm_model_;
  std::size_t model_params_;
  std::vector<std::size_t> degree_of_node_;
  std::vector<double> training_mwh_;
  std::vector<double> comm_mwh_;
  std::vector<std::size_t> training_rounds_;
  std::vector<std::size_t> budget_;
};

}  // namespace skiptrain::energy
