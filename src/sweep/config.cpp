#include "sweep/config.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "fault/fault.hpp"
#include "graph/sparse.hpp"
#include "quant/codec.hpp"
#include "scenario/scenario.hpp"

namespace skiptrain::sweep {

std::pair<std::size_t, std::size_t> tuned_gammas(std::size_t degree) {
  if (degree <= 6) return {4, 4};
  if (degree <= 8) return {3, 3};
  return {4, 2};
}

sim::Algorithm parse_algorithm(const std::string& name) {
  if (name == "dpsgd") return sim::Algorithm::kDpsgd;
  if (name == "dpsgd-allreduce") return sim::Algorithm::kDpsgdAllReduce;
  if (name == "skiptrain") return sim::Algorithm::kSkipTrain;
  if (name == "skiptrain-constrained") {
    return sim::Algorithm::kSkipTrainConstrained;
  }
  if (name == "greedy") return sim::Algorithm::kGreedy;
  if (name == "skiptrain-harvest") return sim::Algorithm::kSkipTrainHarvest;
  if (name == "deal") return sim::Algorithm::kDealDecremental;
  throw std::invalid_argument(
      "parse_algorithm: unknown algorithm '" + name +
      "' (expected dpsgd|dpsgd-allreduce|skiptrain|skiptrain-constrained|"
      "greedy|skiptrain-harvest|deal)");
}

const char* algorithm_token(sim::Algorithm algorithm) {
  switch (algorithm) {
    case sim::Algorithm::kDpsgd:
      return "dpsgd";
    case sim::Algorithm::kDpsgdAllReduce:
      return "dpsgd-allreduce";
    case sim::Algorithm::kSkipTrain:
      return "skiptrain";
    case sim::Algorithm::kSkipTrainConstrained:
      return "skiptrain-constrained";
    case sim::Algorithm::kGreedy:
      return "greedy";
    case sim::Algorithm::kSkipTrainHarvest:
      return "skiptrain-harvest";
    case sim::Algorithm::kDealDecremental:
      return "deal";
  }
  return "?";
}

namespace {

std::string trim(const std::string& text) {
  const auto begin = text.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = text.find_last_not_of(" \t\r");
  return text.substr(begin, end - begin + 1);
}

bool all_digits(const std::string& text) {
  return !text.empty() &&
         std::all_of(text.begin(), text.end(), [](char c) {
           return std::isdigit(static_cast<unsigned char>(c)) != 0;
         });
}

std::uint64_t parse_uint(const std::string& text, const std::string& key) {
  // Digits only — std::stoull would silently wrap "-1" to 2^64-1.
  if (!all_digits(text)) {
    throw std::invalid_argument("sweep config: key '" + key +
                                "' expects a non-negative integer, got '" +
                                text + "'");
  }
  try {
    return static_cast<std::uint64_t>(std::stoull(text));
  } catch (const std::exception&) {
    throw std::invalid_argument("sweep config: key '" + key +
                                "' expects a non-negative integer, got '" +
                                text + "'");
  }
}

bool parse_bool(const std::string& text, const std::string& key) {
  if (text == "1" || text == "true" || text == "yes" || text == "on") {
    return true;
  }
  if (text == "0" || text == "false" || text == "no" || text == "off") {
    return false;
  }
  throw std::invalid_argument("sweep config: key '" + key +
                              "' expects a boolean, got '" + text + "'");
}

template <typename T>
std::vector<T> parse_uint_list(const std::string& text,
                               const std::string& key) {
  std::vector<T> values;
  for (const std::string& token : split_list(text)) {
    values.push_back(static_cast<T>(parse_uint(token, key)));
  }
  return values;
}

std::vector<std::string> dataset_axis(const std::string& value) {
  if (value == "both") return {"cifar", "femnist"};
  std::vector<std::string> datasets = split_list(value);
  for (const std::string& dataset : datasets) {
    (void)workload_for(dataset);  // validates the name
  }
  return datasets;
}

std::vector<std::size_t> gamma_range(std::size_t gamma_max) {
  std::vector<std::size_t> gammas(std::max<std::size_t>(gamma_max, 1));
  std::iota(gammas.begin(), gammas.end(), std::size_t{1});
  return gammas;
}

/// Resolves the scalar PresetParams knobs common to every preset.
SweepGrid preset_base(const PresetParams& params, std::size_t default_nodes,
                      std::size_t default_rounds) {
  SweepGrid grid;
  grid.data.nodes = params.full ? 256
                    : params.nodes != 0 ? params.nodes
                                        : default_nodes;
  grid.data.seed = params.seed;
  grid.base.total_rounds =
      params.rounds != 0 ? params.rounds : default_rounds;
  grid.base.local_steps = params.local_steps;
  grid.base.batch_size = params.batch;
  grid.base.learning_rate = static_cast<float>(params.learning_rate);
  grid.base.eval_max_samples = params.eval_samples;
  grid.base.seed = params.seed;
  // Budgets bind at the same proportion of a scaled run as in the paper;
  // the hand-rolled harnesses did this via options_from_flags.
  grid.scale_budgets_to_paper = true;
  return grid;
}

/// At --full scale the horizon is the workload's paper horizon (T = 1000
/// for CIFAR-10, 3000 for FEMNIST), which the cross product cannot vary
/// per dataset — so it is applied per trial.
void apply_paper_horizon(TrialSpec& spec) {
  spec.options.total_rounds =
      energy::workload_spec(spec.options.workload).total_rounds;
}

bool uses_gammas(sim::Algorithm algorithm) {
  return algorithm == sim::Algorithm::kSkipTrain ||
         algorithm == sim::Algorithm::kSkipTrainConstrained;
}

void apply_tuned_gammas(TrialSpec& spec) {
  if (!uses_gammas(spec.options.algorithm)) return;
  const auto [gamma_train, gamma_sync] = tuned_gammas(spec.options.degree);
  spec.options.gamma_train = gamma_train;
  spec.options.gamma_sync = gamma_sync;
}

}  // namespace

SweepGrid make_preset(const std::string& name, const PresetParams& params) {
  const bool full = params.full;
  const std::size_t eval_every = params.eval_every;  // 0 = preset cadence
  if (name == "fig3") {
    SweepGrid grid = preset_base(params, /*nodes=*/32, /*rounds=*/280);
    grid.name = "fig3";
    grid.datasets =
        dataset_axis(params.dataset.empty() ? "cifar" : params.dataset);
    grid.algorithms = {sim::Algorithm::kSkipTrain};
    grid.degrees = {6, 8, 10};
    grid.gamma_syncs = gamma_range(params.gamma_max);
    grid.gamma_trains = gamma_range(params.gamma_max);
    grid.base.eval_on_validation = true;  // the paper tunes on validation
    grid.finalize = [full, eval_every](TrialSpec& spec) {
      if (full) apply_paper_horizon(spec);
      spec.options.eval_every =
          eval_every != 0 ? eval_every
                          : spec.options.total_rounds;  // endpoint only
    };
    return grid;
  }
  if (name == "fig5") {
    SweepGrid grid = preset_base(params, /*nodes=*/64, /*rounds=*/200);
    grid.name = "fig5";
    grid.datasets =
        dataset_axis(params.dataset.empty() ? "both" : params.dataset);
    grid.algorithms = {sim::Algorithm::kDpsgd, sim::Algorithm::kSkipTrain};
    grid.degrees = {6, 8, 10};
    grid.finalize = [full, eval_every](TrialSpec& spec) {
      if (full) apply_paper_horizon(spec);
      apply_tuned_gammas(spec);
      spec.options.eval_every =
          eval_every != 0
              ? eval_every
              : std::max<std::size_t>(spec.options.total_rounds / 10, 1);
    };
    return grid;
  }
  if (name == "fig6") {
    SweepGrid grid = preset_base(params, /*nodes=*/64, /*rounds=*/200);
    grid.name = "fig6";
    grid.datasets =
        dataset_axis(params.dataset.empty() ? "cifar" : params.dataset);
    grid.algorithms = {sim::Algorithm::kSkipTrainConstrained,
                       sim::Algorithm::kGreedy, sim::Algorithm::kDpsgd};
    grid.degrees = {6, 8, 10};
    grid.finalize = [full, eval_every](TrialSpec& spec) {
      if (full) apply_paper_horizon(spec);
      apply_tuned_gammas(spec);
      spec.options.eval_every =
          eval_every != 0
              ? eval_every
              : std::max<std::size_t>(spec.options.total_rounds / 12, 1);
    };
    return grid;
  }
  if (name == "table3") {
    SweepGrid grid = preset_base(params, /*nodes=*/64, /*rounds=*/200);
    grid.name = "table3";
    grid.datasets =
        dataset_axis(params.dataset.empty() ? "both" : params.dataset);
    grid.algorithms = {sim::Algorithm::kSkipTrain, sim::Algorithm::kDpsgd};
    grid.degrees = {6, 8, 10};
    grid.finalize = [full, eval_every](TrialSpec& spec) {
      if (full) apply_paper_horizon(spec);
      apply_tuned_gammas(spec);
      spec.options.eval_every =
          eval_every != 0 ? eval_every
                          : spec.options.total_rounds;  // endpoint only
    };
    return grid;
  }
  if (name == "quant") {
    // Codec × Γ grid (the quantized-exchange tuning sweep): does a cheaper
    // wire format change which (Γtrain, Γsync) schedule wins, and what
    // does each codec cost in accuracy at the tuned schedule?
    SweepGrid grid = preset_base(params, /*nodes=*/32, /*rounds=*/160);
    grid.name = "quant";
    grid.datasets =
        dataset_axis(params.dataset.empty() ? "cifar" : params.dataset);
    grid.algorithms = {sim::Algorithm::kSkipTrain};
    grid.degrees = {6};
    grid.gamma_syncs = gamma_range(params.gamma_max);
    grid.gamma_trains = gamma_range(params.gamma_max);
    grid.codecs = quant::all_codecs();
    grid.finalize = [full, eval_every](TrialSpec& spec) {
      if (full) apply_paper_horizon(spec);
      spec.options.eval_every =
          eval_every != 0 ? eval_every
                          : spec.options.total_rounds;  // endpoint only
    };
    return grid;
  }
  if (name == "smartphone") {
    SweepGrid grid = preset_base(params, /*nodes=*/64, /*rounds=*/160);
    grid.name = "smartphone";
    grid.datasets =
        dataset_axis(params.dataset.empty() ? "cifar" : params.dataset);
    grid.algorithms = {sim::Algorithm::kSkipTrainConstrained,
                       sim::Algorithm::kGreedy, sim::Algorithm::kDpsgd};
    grid.degrees = {6};
    grid.gamma_trains = {4};
    grid.gamma_syncs = {4};
    grid.base.eval_every = eval_every != 0 ? eval_every : 32;
    if (full) grid.finalize = apply_paper_horizon;
    return grid;
  }
  if (name == "solar_sensor_fleet") {
    // Harvest-aware frontier: does riding the diurnal harvest wave beat a
    // fixed Γ-schedule when batteries are finite — and what does the
    // always-powered paper setting lose once the sun sets?
    SweepGrid grid = preset_base(params, /*nodes=*/32, /*rounds=*/96);
    grid.name = "solar_sensor_fleet";
    grid.datasets =
        dataset_axis(params.dataset.empty() ? "cifar" : params.dataset);
    grid.algorithms = {sim::Algorithm::kSkipTrain,
                       sim::Algorithm::kSkipTrainHarvest,
                       sim::Algorithm::kDpsgd};
    grid.degrees = {6};
    grid.gamma_trains = {4};
    grid.gamma_syncs = {4};
    grid.scenarios = {"none", "solar"};
    grid.base.eval_every = eval_every != 0 ? eval_every : 24;
    if (full) grid.finalize = apply_paper_horizon;
    return grid;
  }
  if (name == "large_fleet") {
    // Scale-out smoke: a 10k-node fleet on the implicit k-regular topology
    // exercises the whole-row gossip tiles end to end (O(n·k) topology
    // memory, sparse comm billing) at a size the dense adjacency could
    // never reach. The workload knobs are deliberately tiny — the point is
    // the n, not the learning curve.
    SweepGrid grid = preset_base(params, /*nodes=*/10000, /*rounds=*/4);
    grid.name = "large_fleet";
    grid.datasets =
        dataset_axis(params.dataset.empty() ? "cifar" : params.dataset);
    grid.algorithms = {sim::Algorithm::kSkipTrain};
    grid.degrees = {6};
    grid.gamma_trains = {2};
    grid.gamma_syncs = {2};
    grid.topologies = {"kregular:6"};
    grid.base.local_steps = 1;
    grid.base.batch_size = 4;
    grid.data.samples_per_node = 8;
    grid.data.test_pool = 400;
    grid.base.eval_max_samples = 64;
    grid.finalize = [eval_every](TrialSpec& spec) {
      spec.options.eval_every =
          eval_every != 0 ? eval_every
                          : spec.options.total_rounds;  // endpoint only
    };
    return grid;
  }
  if (name == "churning_phone_fleet") {
    // Churn stress case: tight batteries and heavy weather force frequent
    // mid-run dropout/re-entry. Compares budget-aware participation
    // policies under identical churn.
    SweepGrid grid = preset_base(params, /*nodes=*/32, /*rounds=*/96);
    grid.name = "churning_phone_fleet";
    grid.datasets =
        dataset_axis(params.dataset.empty() ? "cifar" : params.dataset);
    grid.algorithms = {sim::Algorithm::kSkipTrainConstrained,
                       sim::Algorithm::kDealDecremental,
                       sim::Algorithm::kGreedy};
    grid.degrees = {6};
    grid.gamma_trains = {4};
    grid.gamma_syncs = {4};
    grid.scenarios = {"churn"};
    grid.base.eval_every = eval_every != 0 ? eval_every : 24;
    if (full) grid.finalize = apply_paper_horizon;
    return grid;
  }
  if (name == "chaotic_fleet") {
    // Robustness stress case: the churn fleet with the full fault menu on
    // top — lossy links, CRC-rejected corruption, duplicate deliveries,
    // crash-restarts, and checkpoint-write failures — against the same
    // configuration with faults off. The chaos is seed-derived, so every
    // trial stays bit-identical across thread counts and kill/resume.
    SweepGrid grid = preset_base(params, /*nodes=*/32, /*rounds=*/96);
    grid.name = "chaotic_fleet";
    grid.datasets =
        dataset_axis(params.dataset.empty() ? "cifar" : params.dataset);
    grid.algorithms = {sim::Algorithm::kSkipTrain,
                       sim::Algorithm::kSkipTrainConstrained};
    grid.degrees = {6};
    grid.gamma_trains = {4};
    grid.gamma_syncs = {4};
    grid.scenarios = {"churn"};
    grid.faults = {"none",
                   "drop:0.05,corrupt:0.01,dup:0.02,crash:0.004,io:0.1"};
    grid.keep_generations = 3;
    grid.base.eval_every = eval_every != 0 ? eval_every : 24;
    if (full) grid.finalize = apply_paper_horizon;
    return grid;
  }
  throw std::invalid_argument(
      "make_preset: unknown preset '" + name +
      "' (known: fig3 fig5 fig6 table3 quant smartphone solar_sensor_fleet "
      "churning_phone_fleet chaotic_fleet large_fleet)");
}

const std::vector<std::string>& preset_names() {
  static const std::vector<std::string> kNames = {
      "fig3",  "fig5",       "fig6",
      "table3", "quant",      "smartphone",
      "solar_sensor_fleet",   "churning_phone_fleet",
      "chaotic_fleet",        "large_fleet"};
  return kNames;
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> tokens;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string raw =
        trim(comma == std::string::npos ? text.substr(start)
                                        : text.substr(start, comma - start));
    if (!raw.empty()) {
      const std::size_t dots = raw.find("..");
      bool expanded = false;
      if (dots != std::string::npos && dots > 0 &&
          dots + 2 < raw.size()) {
        const std::string lo_text = trim(raw.substr(0, dots));
        const std::string hi_text = trim(raw.substr(dots + 2));
        const bool numeric = all_digits(lo_text) && all_digits(hi_text);
        if (numeric) {
          const std::uint64_t lo = parse_uint(lo_text, "range");
          const std::uint64_t hi = parse_uint(hi_text, "range");
          if (lo > hi) {
            throw std::invalid_argument("sweep config: descending range '" +
                                        raw + "'");
          }
          for (std::uint64_t v = lo; v <= hi; ++v) {
            tokens.push_back(std::to_string(v));
          }
          expanded = true;
        }
      }
      if (!expanded) tokens.push_back(raw);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return tokens;
}

std::vector<std::string> split_semicolon_list(const std::string& text) {
  std::vector<std::string> tokens;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t sep = text.find(';', start);
    const std::string raw =
        trim(sep == std::string::npos ? text.substr(start)
                                      : text.substr(start, sep - start));
    if (!raw.empty()) tokens.push_back(raw);
    if (sep == std::string::npos) break;
    start = sep + 1;
  }
  return tokens;
}

SweepGrid grid_from_kv(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  SweepGrid grid;
  bool tuned = false;
  for (const auto& [key, value] : pairs) {
    if (key == "name") {
      grid.name = value;
    } else if (key == "dataset" || key == "datasets") {
      grid.datasets = dataset_axis(value);
    } else if (key == "nodes") {
      grid.node_counts = parse_uint_list<std::size_t>(value, key);
    } else if (key == "seeds" || key == "seed") {
      grid.seeds = parse_uint_list<std::uint64_t>(value, key);
    } else if (key == "algorithms" || key == "algorithm") {
      grid.algorithms.clear();
      for (const std::string& token : split_list(value)) {
        grid.algorithms.push_back(parse_algorithm(token));
      }
    } else if (key == "degrees" || key == "degree") {
      grid.degrees = parse_uint_list<std::size_t>(value, key);
    } else if (key == "gamma-train" || key == "gamma-trains") {
      grid.gamma_trains = parse_uint_list<std::size_t>(value, key);
    } else if (key == "gamma-sync" || key == "gamma-syncs") {
      grid.gamma_syncs = parse_uint_list<std::size_t>(value, key);
    } else if (key == "sparse-k" || key == "sparse-ks") {
      grid.sparse_ks = parse_uint_list<std::size_t>(value, key);
    } else if (key == "codec" || key == "codecs") {
      grid.codecs.clear();
      for (const std::string& token : split_list(value)) {
        grid.codecs.push_back(quant::parse_codec(token));
      }
    } else if (key == "scenario" || key == "scenarios") {
      grid.scenarios.clear();
      for (const std::string& token : split_list(value)) {
        (void)scenario::make_config(token);  // validates the name
        grid.scenarios.push_back(token);
      }
    } else if (key == "topology" || key == "topologies") {
      grid.topologies.clear();
      for (const std::string& token : split_list(value)) {
        (void)graph::TopologySpec::parse(token);  // validates the token
        grid.topologies.push_back(token);
      }
    } else if (key == "fault" || key == "faults") {
      // ';'-separated axis: faults = none;drop:0.05,corrupt:0.01
      grid.faults.clear();
      for (const std::string& token : split_semicolon_list(value)) {
        fault::make_plan(token).validate();  // validates the spec
        grid.faults.push_back(token);
      }
    } else if (key == "keep-generations" || key == "keep_generations") {
      grid.keep_generations =
          static_cast<std::size_t>(parse_uint(value, key));
    } else if (key == "rounds") {
      grid.base.total_rounds =
          static_cast<std::size_t>(parse_uint(value, key));
    } else if (key == "local-steps") {
      grid.base.local_steps =
          static_cast<std::size_t>(parse_uint(value, key));
    } else if (key == "batch") {
      grid.base.batch_size = static_cast<std::size_t>(parse_uint(value, key));
    } else if (key == "lr") {
      try {
        grid.base.learning_rate = std::stof(value);
      } catch (const std::exception&) {
        throw std::invalid_argument("sweep config: key 'lr' expects a "
                                    "number, got '" + value + "'");
      }
    } else if (key == "eval-every") {
      grid.base.eval_every = static_cast<std::size_t>(parse_uint(value, key));
    } else if (key == "eval-samples") {
      grid.base.eval_max_samples =
          static_cast<std::size_t>(parse_uint(value, key));
    } else if (key == "samples-per-node") {
      grid.data.samples_per_node =
          static_cast<std::size_t>(parse_uint(value, key));
    } else if (key == "test-pool") {
      grid.data.test_pool = static_cast<std::size_t>(parse_uint(value, key));
    } else if (key == "eval-on-validation") {
      grid.base.eval_on_validation = parse_bool(value, key);
    } else if (key == "track-consensus") {
      grid.base.track_consensus = parse_bool(value, key);
    } else if (key == "evaluate-allreduce") {
      grid.base.evaluate_allreduce = parse_bool(value, key);
    } else if (key == "scale-budgets") {
      grid.scale_budgets_to_paper = parse_bool(value, key);
    } else if (key == "checkpoint-dir" || key == "checkpoint_dir") {
      grid.checkpoint_dir = value;
    } else if (key == "checkpoint-every" || key == "checkpoint_every") {
      grid.checkpoint_every = static_cast<std::size_t>(parse_uint(value, key));
    } else if (key == "resume") {
      grid.resume = parse_bool(value, key);
    } else if (key == "tuned-gammas") {
      tuned = parse_bool(value, key);
    } else {
      throw std::invalid_argument("sweep config: unknown key '" + key + "'");
    }
  }
  if (tuned) grid.finalize = apply_tuned_gammas;
  return grid;
}

SweepGrid load_grid_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("load_grid_file: cannot open '" + path + "'");
  }
  std::vector<std::pair<std::string, std::string>> pairs;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::size_t comment = line.find('#');
    if (comment != std::string::npos) line.erase(comment);
    const std::string text = trim(line);
    if (text.empty()) continue;
    const std::size_t equals = text.find('=');
    if (equals == std::string::npos) {
      throw std::runtime_error("load_grid_file: " + path + ":" +
                               std::to_string(line_number) +
                               ": expected 'key = value'");
    }
    pairs.emplace_back(trim(text.substr(0, equals)),
                       trim(text.substr(equals + 1)));
  }
  return grid_from_kv(pairs);
}

}  // namespace skiptrain::sweep
