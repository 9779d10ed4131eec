// Grid construction without writing a binary: named paper presets and a
// key=value config-file format, one parser producing SweepGrids for both.
//
// Config text is line-oriented `key = value` pairs; '#' starts a comment
// and a later pair overrides an earlier one. List-valued keys take comma
// lists and inclusive integer ranges ("degrees = 6,8,10",
// "gamma-train = 1..4"); one node count sets the grid's base fleet size
// (data.nodes), a list of them sweeps it. Example:
//
//   # γ grid on the 8-regular topology, 3 replicate seeds
//   name        = gamma8
//   dataset     = cifar
//   nodes       = 32
//   rounds      = 280
//   algorithms  = skiptrain
//   degrees     = 8
//   gamma-train = 1..4
//   gamma-sync  = 1..4
//   seeds       = 42,43,44
//   codecs      = identity,int8   # exchange wire formats (quant/codec.hpp)
//   scenarios   = none,solar      # harvest/churn settings (scenario/)
//   topologies  = dense,kregular:6  # gossip graphs (graph/sparse.hpp)
//   checkpoint-dir   = ckpt/      # crash-resumable sweep (ckpt/trial_store)
//   checkpoint-every = 25         # in-flight fleet image cadence (rounds)
//   resume           = true       # skip completed trials on rerun
//
// Two value forms resolve per trial: `rounds = paper` is each trial's
// paper horizon (T = 1000 for CIFAR-10, 3000 for FEMNIST), and
// `eval-every = total/N` evaluates every max(rounds / N, 1) rounds
// (total/1: at the endpoint only). `tuned-gammas = true` gives SkipTrain
// trials the §4.3 Γ pair of their degree.
//
// The presets are the single source of truth for the grids behind the
// paper's figure/table harnesses: each is a config text built into the
// library, the bench binaries call make_preset with their flag values,
// and bench/sweep_main exposes the same grids by name.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sweep/grid.hpp"

namespace skiptrain::sweep {

/// Parses "dpsgd" | "dpsgd-allreduce" | "skiptrain" |
/// "skiptrain-constrained" | "greedy" | "skiptrain-harvest" | "deal".
/// Throws on anything else.
[[nodiscard]] sim::Algorithm parse_algorithm(const std::string& name);

/// Inverse of parse_algorithm (the config-file token, not the display
/// name from sim::algorithm_name).
[[nodiscard]] const char* algorithm_token(sim::Algorithm algorithm);

/// Shared scalar knobs of the paper presets; defaults mirror the bench
/// harnesses' common flags. 0 / empty means "use the preset's default".
struct PresetParams {
  std::size_t nodes = 0;
  std::size_t rounds = 0;
  std::size_t local_steps = 10;
  std::size_t batch = 16;
  double learning_rate = 0.1;
  std::size_t eval_every = 0;  // 0 = the preset's cadence
  std::size_t eval_samples = 600;
  std::uint64_t seed = 42;
  std::string dataset;        // "" = preset default; "both" allowed
  std::size_t gamma_max = 4;  // Γ range of the presets that sweep Γ
  bool full = false;          // paper scale: 256 nodes, paper horizon
};

/// Builds the grid behind a paper harness: "fig3" (γ grid), "fig5"
/// (SkipTrain vs D-PSGD trade-off), "fig6" (energy-constrained
/// comparison), "table3" (energy + accuracy summary), "quant" (exchange
/// codec × γ grid), "smartphone" (the §4.6 example fleet),
/// "solar_sensor_fleet" (harvest-aware vs fixed schedules under a solar
/// scenario), "churning_phone_fleet" (participation policies under
/// battery churn), "chaotic_fleet" (the churn fleet under the full fault
/// menu), or "large_fleet" (10k-node implicit k-regular scale-out smoke).
/// Throws std::invalid_argument on unknown names.
/// Layers, later ones winning: the always-set params (local_steps, batch,
/// learning_rate, eval_samples, seed; budget scaling on), the preset text
/// (so large_fleet's own local steps and batch win), then the set params:
/// nodes, rounds, dataset, eval_every, gamma_max (presets that sweep Γ)
/// and full (`nodes = 256`, `rounds = paper`).
[[nodiscard]] SweepGrid make_preset(const std::string& name,
                                    const PresetParams& params = {});

[[nodiscard]] const std::vector<std::string>& preset_names();

/// Applies parsed key=value pairs over `grid`, in order. Unknown keys and
/// bad values throw std::invalid_argument.
[[nodiscard]] SweepGrid grid_from_kv(
    const std::vector<std::pair<std::string, std::string>>& pairs,
    SweepGrid grid = {});

/// Parses config text (format above) into a grid; `origin` names the text
/// in line-numbered syntax errors.
[[nodiscard]] SweepGrid parse_grid_text(const std::string& text,
                                        const std::string& origin = "config");

/// Reads a config file and parses it with parse_grid_text.
[[nodiscard]] SweepGrid load_grid_file(const std::string& path);

inline constexpr std::uint64_t kMaxRangeValues = 4096;

/// Splits a comma list, expanding inclusive "lo..hi" integer ranges; one
/// of more than kMaxRangeValues values throws instead of allocating.
[[nodiscard]] std::vector<std::string> split_list(const std::string& text);

/// Splits a ';' list into trimmed, non-empty tokens. Fault-plan specs are
/// comma-structured themselves (drop:P,corrupt:P), so the faults axis
/// separates its values with ';' instead of ','.
[[nodiscard]] std::vector<std::string> split_semicolon_list(
    const std::string& text);

}  // namespace skiptrain::sweep
