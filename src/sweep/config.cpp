#include "sweep/config.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "fault/fault.hpp"
#include "graph/sparse.hpp"
#include "quant/codec.hpp"
#include "scenario/scenario.hpp"

namespace skiptrain::sweep {

namespace {

constexpr std::pair<const char*, sim::Algorithm> kAlgorithms[] = {
    {"dpsgd", sim::Algorithm::kDpsgd},
    {"dpsgd-allreduce", sim::Algorithm::kDpsgdAllReduce},
    {"skiptrain", sim::Algorithm::kSkipTrain},
    {"skiptrain-constrained", sim::Algorithm::kSkipTrainConstrained},
    {"greedy", sim::Algorithm::kGreedy},
    {"skiptrain-harvest", sim::Algorithm::kSkipTrainHarvest},
    {"deal", sim::Algorithm::kDealDecremental},
};

struct Preset {
  const char* name;
  const char* text;
};

// The paper presets as config text; make_preset layers PresetParams
// around them (config.hpp).
constexpr Preset kPresets[] = {
    {"fig3", R"(
dataset            = cifar
nodes              = 32
rounds             = 280
algorithms         = skiptrain
degrees            = 6,8,10
gamma-sync         = 1..4
gamma-train        = 1..4
eval-on-validation = true     # the paper tunes on validation
eval-every         = total/1
)"},
    {"fig5", R"(
dataset      = both
nodes        = 64
rounds       = 200
algorithms   = dpsgd,skiptrain
degrees      = 6,8,10
tuned-gammas = true
eval-every   = total/10
)"},
    {"fig6", R"(
dataset      = cifar
nodes        = 64
rounds       = 200
algorithms   = skiptrain-constrained,greedy,dpsgd
degrees      = 6,8,10
tuned-gammas = true
eval-every   = total/12
)"},
    {"table3", R"(
dataset      = both
nodes        = 64
rounds       = 200
algorithms   = skiptrain,dpsgd
degrees      = 6,8,10
tuned-gammas = true
eval-every   = total/1
)"},
    {"quant", R"(
# Codec x Γ grid: does a cheaper wire format change which (Γtrain, Γsync)
# schedule wins, and what does each codec cost in accuracy?
dataset     = cifar
nodes       = 32
rounds      = 160
algorithms  = skiptrain
degrees     = 6
gamma-sync  = 1..4
gamma-train = 1..4
codecs      = identity,fp16,int8,int8-dither
eval-every  = total/1
)"},
    {"smartphone", R"(
dataset     = cifar
nodes       = 64
rounds      = 160
algorithms  = skiptrain-constrained,greedy,dpsgd
degrees     = 6
gamma-train = 4
gamma-sync  = 4
eval-every  = 32
)"},
    {"solar_sensor_fleet", R"(
# Harvest-aware frontier: does riding the diurnal harvest wave beat a
# fixed Γ schedule when batteries are finite?
dataset     = cifar
nodes       = 32
rounds      = 96
algorithms  = skiptrain,skiptrain-harvest,dpsgd
degrees     = 6
gamma-train = 4
gamma-sync  = 4
scenarios   = none,solar
eval-every  = 24
)"},
    {"churning_phone_fleet", R"(
# Churn stress case: tight batteries and heavy weather force frequent
# dropout and re-entry; budget-aware participation policies compared.
dataset     = cifar
nodes       = 32
rounds      = 96
algorithms  = skiptrain-constrained,deal,greedy
degrees     = 6
gamma-train = 4
gamma-sync  = 4
scenarios   = churn
eval-every  = 24
)"},
    {"chaotic_fleet", R"(
# Robustness stress case: the churn fleet with and without the full fault
# menu (lossy links, corruption, duplicates, crashes, checkpoint-write
# failures), all seed-derived, so trials stay bit-identical.
dataset          = cifar
nodes            = 32
rounds           = 96
algorithms       = skiptrain,skiptrain-constrained
degrees          = 6
gamma-train      = 4
gamma-sync       = 4
scenarios        = churn
faults           = none;drop:0.05,corrupt:0.01,dup:0.02,crash:0.004,io:0.1
keep-generations = 3
eval-every       = 24
)"},
    {"large_fleet", R"(
# Scale-out smoke: a 10k-node fleet on the implicit k-regular topology
# (O(n·k) memory, sparse comm billing). The workload knobs are tiny on
# purpose: the point is the n, not the learning curve.
dataset          = cifar
nodes            = 10000
rounds           = 4
algorithms       = skiptrain
degrees          = 6
gamma-train      = 2
gamma-sync       = 2
topologies       = kregular:6
local-steps      = 1
batch            = 4
samples-per-node = 8
test-pool        = 400
eval-samples     = 64
eval-every       = total/1
)"},
};

using KvPairs = std::vector<std::pair<std::string, std::string>>;

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
  // Digits only — strtoull would silently wrap "-1" to 2^64-1.
  errno = 0;
  const bool digits = all_digits(text);
  const std::uint64_t value =
      digits ? std::strtoull(text.c_str(), nullptr, 10) : 0;
  if (!digits || errno == ERANGE) {
    throw std::invalid_argument("sweep config: key '" + key +
                                "' expects a non-negative integer, got '" +
                                text + "'");
  }
  return value;
}

float parse_finite_float(const std::string& text, const std::string& key) {
  errno = 0;
  char* end = nullptr;
  const float value = std::strtof(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE ||
      !std::isfinite(value)) {
    throw std::invalid_argument("sweep config: key '" + key +
                                "' expects a finite number, got '" + text +
                                "'");
  }
  return value;
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

/// Returns `tokens` once `check`, which throws on a bad token, passes each.
template <typename Check>
std::vector<std::string> checked(const std::vector<std::string>& tokens,
                                 Check check) {
  for (const std::string& token : tokens) check(token);
  return tokens;
}

/// Splits on `separator` into trimmed, non-empty tokens.
std::vector<std::string> split_trimmed(const std::string& text,
                                       char separator) {
  std::vector<std::string> tokens;
  for (std::size_t start = 0; start <= text.size();) {
    const std::size_t end = std::min(text.find(separator, start), text.size());
    std::string token = trim(text.substr(start, end - start));
    if (!token.empty()) tokens.push_back(std::move(token));
    start = end + 1;
  }
  return tokens;
}

/// Splits config text into its key=value pairs, in order.
KvPairs read_pairs(const std::string& text, const std::string& origin) {
  KvPairs pairs;
  std::istringstream in(text);
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::size_t comment = line.find('#');
    if (comment != std::string::npos) line.erase(comment);
    const std::string stripped = trim(line);
    if (stripped.empty()) continue;
    const std::size_t equals = stripped.find('=');
    if (equals == std::string::npos) {
      throw std::runtime_error("sweep config: " + origin + ":" +
                               std::to_string(line_number) +
                               ": expected 'key = value'");
    }
    pairs.emplace_back(trim(stripped.substr(0, equals)),
                       trim(stripped.substr(equals + 1)));
  }
  return pairs;
}

}  // namespace

sim::Algorithm parse_algorithm(const std::string& name) {
  for (const auto& [token, algorithm] : kAlgorithms) {
    if (name == token) return algorithm;
  }
  throw std::invalid_argument(
      "parse_algorithm: unknown algorithm '" + name +
      "' (expected dpsgd|dpsgd-allreduce|skiptrain|skiptrain-constrained|"
      "greedy|skiptrain-harvest|deal)");
}

const char* algorithm_token(sim::Algorithm algorithm) {
  for (const auto& [token, value] : kAlgorithms) {
    if (value == algorithm) return token;
  }
  return "?";
}

SweepGrid make_preset(const std::string& name, const PresetParams& params) {
  const auto preset =
      std::find_if(std::begin(kPresets), std::end(kPresets),
                   [&name](const Preset& p) { return name == p.name; });
  if (preset == std::end(kPresets)) {
    std::string known;
    for (const std::string& preset_name : preset_names()) {
      known += " " + preset_name;
    }
    throw std::invalid_argument("make_preset: unknown preset '" + name +
                                "' (known:" + known + ")");
  }
  SweepGrid grid;
  grid.name = name;
  grid.base.local_steps = params.local_steps;
  grid.base.batch_size = params.batch;
  grid.base.learning_rate = static_cast<float>(params.learning_rate);
  grid.base.eval_max_samples = params.eval_samples;
  grid.base.seed = params.seed;
  grid.data.seed = params.seed;
  // Budgets bind at the same proportion of a scaled run as in the paper.
  grid.scale_budgets_to_paper = true;
  grid = grid_from_kv(read_pairs(preset->text, name), std::move(grid));

  KvPairs overrides;
  const auto set_count = [&overrides](const char* key, std::size_t value) {
    if (value != 0) overrides.emplace_back(key, std::to_string(value));
  };
  set_count("nodes", params.nodes);
  set_count("rounds", params.rounds);
  if (!params.dataset.empty()) overrides.emplace_back("dataset", params.dataset);
  set_count("eval-every", params.eval_every);
  if (grid.gamma_trains.size() > 1) {  // presets that sweep Γ
    const std::string range =
        "1.." + std::to_string(std::max<std::size_t>(params.gamma_max, 1));
    overrides.emplace_back("gamma-sync", range);
    overrides.emplace_back("gamma-train", range);
  }
  if (params.full) {
    overrides.emplace_back("nodes", "256");
    overrides.emplace_back("rounds", "paper");
  }
  return grid_from_kv(overrides, std::move(grid));
}

const std::vector<std::string>& preset_names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const Preset& preset : kPresets) names.emplace_back(preset.name);
    return names;
  }();
  return kNames;
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> tokens;
  for (const std::string& raw : split_trimmed(text, ',')) {
    const std::size_t dots = raw.find("..");
    const std::string lo_text =
        dots == std::string::npos ? "" : trim(raw.substr(0, dots));
    const std::string hi_text =
        dots == std::string::npos ? "" : trim(raw.substr(dots + 2));
    if (!all_digits(lo_text) || !all_digits(hi_text)) {
      tokens.push_back(raw);
      continue;
    }
    const std::uint64_t lo = parse_uint(lo_text, "range");
    const std::uint64_t hi = parse_uint(hi_text, "range");
    if (lo > hi) {
      throw std::invalid_argument("sweep config: descending range '" + raw +
                                  "'");
    }
    if (hi - lo >= kMaxRangeValues) {
      throw std::invalid_argument("sweep config: range '" + raw +
                                  "' spans more than " +
                                  std::to_string(kMaxRangeValues) + " values");
    }
    for (std::uint64_t v = lo; v <= hi; ++v) {
      tokens.push_back(std::to_string(v));
    }
  }
  return tokens;
}

std::vector<std::string> split_semicolon_list(const std::string& text) {
  return split_trimmed(text, ';');
}

SweepGrid grid_from_kv(const KvPairs& pairs, SweepGrid grid) {
  for (const auto& [key, value] : pairs) {
    if (key == "name") {
      grid.name = value;
    } else if (key == "dataset" || key == "datasets") {
      grid.datasets = value == "both"
                          ? std::vector<std::string>{"cifar", "femnist"}
                          : checked(split_list(value), workload_for);
    } else if (key == "nodes") {
      grid.node_counts = parse_uint_list<std::size_t>(value, key);
      if (grid.node_counts.size() == 1) {
        grid.data.nodes = grid.node_counts.front();
        grid.node_counts.clear();
      }
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
      grid.scenarios = checked(split_list(value), scenario::make_config);
    } else if (key == "topology" || key == "topologies") {
      grid.topologies =
          checked(split_list(value), graph::TopologySpec::parse);
    } else if (key == "fault" || key == "faults") {
      // ';'-separated axis: faults = none;drop:0.05,corrupt:0.01
      grid.faults = checked(split_semicolon_list(value), [](const auto& spec) {
        fault::make_plan(spec).validate();
      });
    } else if (key == "keep-generations" || key == "keep_generations") {
      grid.keep_generations = parse_uint(value, key);
    } else if (key == "rounds") {
      grid.paper_horizon = value == "paper";
      if (!grid.paper_horizon) grid.base.total_rounds = parse_uint(value, key);
    } else if (key == "local-steps") {
      grid.base.local_steps = parse_uint(value, key);
    } else if (key == "batch") {
      grid.base.batch_size = parse_uint(value, key);
    } else if (key == "lr") {
      grid.base.learning_rate = parse_finite_float(value, key);
    } else if (key == "eval-every") {
      const bool fraction = value.starts_with("total/");
      const std::uint64_t number =
          parse_uint(fraction ? value.substr(6) : value, key);
      if (fraction && number == 0) {
        throw std::invalid_argument("sweep config: eval-every 'total/0'");
      }
      grid.eval_every_divisor = fraction ? number : 0;
      if (!fraction) grid.base.eval_every = number;
    } else if (key == "eval-samples") {
      grid.base.eval_max_samples = parse_uint(value, key);
    } else if (key == "samples-per-node") {
      grid.data.samples_per_node = parse_uint(value, key);
    } else if (key == "test-pool") {
      grid.data.test_pool = parse_uint(value, key);
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
      grid.checkpoint_every = parse_uint(value, key);
    } else if (key == "resume") {
      grid.resume = parse_bool(value, key);
    } else if (key == "tuned-gammas") {
      grid.use_tuned_gammas = parse_bool(value, key);
    } else {
      throw std::invalid_argument("sweep config: unknown key '" + key + "'");
    }
  }
  return grid;
}

SweepGrid parse_grid_text(const std::string& text, const std::string& origin) {
  return grid_from_kv(read_pairs(text, origin));
}

SweepGrid load_grid_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("load_grid_file: cannot open '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse_grid_text(text.str(), path);
}

}  // namespace skiptrain::sweep
