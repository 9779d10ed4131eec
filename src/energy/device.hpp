// Smartphone energy traces (paper §2.3 and §4.2, Table 2).
//
// The paper derives per-round training energy for four smartphones from
// three ingredients:
//   1. sustained training power P_hw from the Burnout benchmark;
//   2. per-sample MobileNet-v2 inference latency from the AI Benchmark;
//   3. FedScale's scaling rule: training time = 3 x inference time, with
//      inference time scaled linearly by batch size, local steps and the
//      model-to-MobileNet parameter ratio.
// Per-round energy is then E = P_hw * Δt (Eq. 2).
//
// This module keeps BOTH representations:
//  * the *canonical trace* — per-round mWh and round budgets exactly as in
//    Table 2 (with the sub-display-precision digits calibrated so the
//    aggregate Table 3 energies land on the paper's values, see README.md,
//    "Energy traces and budgets");
//  * the *derivation pipeline* — the formulas above with per-device
//    (power, latency) constants, tested to agree with the canonical trace
//    to within a few percent. Benches use the canonical numbers; the
//    pipeline documents and validates the methodology.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace skiptrain::energy {

/// The two evaluation workloads of the paper.
enum class Workload { kCifar10, kFemnist };

[[nodiscard]] const char* workload_name(Workload workload);

/// Table 1 constants that feed the energy derivation.
struct WorkloadSpec {
  std::string name;
  std::size_t model_params;       // |x|
  std::size_t batch_size;         // |ξ|
  std::size_t local_steps;        // E
  std::size_t total_rounds;       // T
  double battery_drain_fraction;  // budget rule: 10% CIFAR, 50% FEMNIST
};

[[nodiscard]] const WorkloadSpec& workload_spec(Workload workload);

/// MobileNet-v2 parameter count used as the AI-Benchmark reference model.
inline constexpr std::size_t kMobileNetV2Params = 3504872;

/// FedScale's training-time rule: train = 3 x inference.
inline constexpr double kTrainOverInferenceFactor = 3.0;

struct DeviceProfile {
  std::string name;
  double power_watts;           // Burnout-style sustained training power
  double mobilenet_latency_ms;  // AI-Benchmark per-sample inference latency
  double battery_wh;            // pack capacity

  /// Δt of one training round (seconds):
  ///   3 x t_inf x |ξ| x E x (|x| / |x_mobilenet|).
  [[nodiscard]] double training_round_seconds(const WorkloadSpec& spec) const;

  /// E = P x Δt, in mWh (Eq. 2).
  [[nodiscard]] double derived_energy_per_round_mwh(
      const WorkloadSpec& spec) const;

  /// τ: number of training rounds before the allowed battery drain is
  /// exhausted, given a per-round energy.
  [[nodiscard]] std::size_t budget_rounds(const WorkloadSpec& spec,
                                          double energy_per_round_mwh) const;
};

/// One canonical trace row = Table 2 of the paper.
struct TraceEntry {
  DeviceProfile profile;
  double cifar_mwh;            // "Average Energy [mWh]" CIFAR-10 column
  double femnist_mwh;          // FEMNIST column
  std::size_t cifar_rounds;    // "Training rounds" CIFAR-10 column (τ)
  std::size_t femnist_rounds;  // FEMNIST column (τ)

  [[nodiscard]] double energy_per_round_mwh(Workload workload) const;
  [[nodiscard]] std::size_t canonical_budget_rounds(Workload workload) const;
};

/// The four smartphones of Table 2, in paper order:
/// Xiaomi 12 Pro, Samsung Galaxy S22 Ultra, OnePlus Nord 2 5G, Xiaomi Poco X3.
[[nodiscard]] const std::vector<TraceEntry>& smartphone_traces();

/// Mean per-round training energy across the trace devices (mWh); this is
/// the constant behind every closed-form energy figure in the paper:
/// total = mean x nodes x training_rounds.
[[nodiscard]] double mean_energy_per_round_mwh(Workload workload);

/// Communication + aggregation energy model, calibrated against the
/// intro's measurement: on CIFAR-10 with 256 nodes and 1000 rounds,
/// training costs 1.51 kWh while sharing+aggregation costs ~7 Wh (>200x
/// cheaper). Energy scales with transferred bytes (model size x degree).
struct CommModel {
  /// mWh consumed per megabyte sent or received (default calibrated to the
  /// paper's 7 Wh aggregate; ~46 J/GB, in line with published Wi-Fi/LTE
  /// per-bit energy measurements).
  double mwh_per_megabyte = 0.01268;

  /// Wire bytes per exchanged parameter. Defaults to float32 (the paper's
  /// setting); quantized exchanges derive it from the active codec via
  /// quant::comm_model_for (4 / 2 / 1.125 for fp32 / fp16 / int8) so the
  /// bill tracks the true wire volume instead of assuming 4 bytes.
  double bytes_per_param = 4.0;

  /// Energy for one sharing+aggregation step of a node with `degree`
  /// neighbors exchanging a `params`-parameter model (send only; the
  /// symmetric receive is billed to the peer's own exchange).
  [[nodiscard]] double exchange_energy_mwh(std::size_t params,
                                           std::size_t degree) const;
};

}  // namespace skiptrain::energy
