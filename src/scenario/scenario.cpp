#include "scenario/scenario.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "ckpt/io.hpp"
#include "util/rng.hpp"

namespace skiptrain::scenario {

namespace {

// Sub-seed purposes for the scenario's stateless draws, disjoint from the
// engine/scheduler purposes by construction (hash_combine with unique
// tags).
constexpr std::uint64_t kPanelPurpose = 0x50414e454c5f3031ULL;    // "PANEL_01"
constexpr std::uint64_t kWeatherPurpose = 0x5745415448455230ULL;  // "WEATHER0"

std::uint64_t f64_bits(double value) {
  return std::bit_cast<std::uint64_t>(value);
}

}  // namespace

void ScenarioConfig::validate() const {
  if (!enabled) return;
  const auto in_unit = [](double v) { return v >= 0.0 && v <= 1.0; };
  if (battery_rounds <= 0.0 || !std::isfinite(battery_rounds)) {
    throw std::invalid_argument("scenario: battery_rounds must be positive");
  }
  if (!in_unit(initial_soc) || !in_unit(dropout_soc) || !in_unit(reentry_soc)) {
    throw std::invalid_argument(
        "scenario: state-of-charge thresholds must lie in [0, 1]");
  }
  if (reentry_soc < dropout_soc) {
    throw std::invalid_argument(
        "scenario: reentry_soc must be >= dropout_soc (hysteresis)");
  }
  if (harvest == HarvestKind::kSolar) {
    if (harvest_rounds_mean < 0.0 || !std::isfinite(harvest_rounds_mean)) {
      throw std::invalid_argument(
          "scenario: harvest_rounds_mean must be non-negative");
    }
    if (period_rounds <= 0.0 || !std::isfinite(period_rounds)) {
      throw std::invalid_argument(
          "scenario: period_rounds must be positive");
    }
    if (weather_noise < 0.0 || panel_spread < 0.0 || panel_spread >= 1.0) {
      throw std::invalid_argument(
          "scenario: weather_noise must be >= 0 and panel_spread in [0, 1)");
    }
  }
  if (harvest == HarvestKind::kTrace) {
    if (trace == nullptr) {
      throw std::invalid_argument("scenario: trace replay without a trace");
    }
    if (trace_scale < 0.0 || !std::isfinite(trace_scale)) {
      throw std::invalid_argument(
          "scenario: trace_scale must be non-negative");
    }
  }
}

std::uint64_t ScenarioConfig::config_hash() const {
  if (!enabled) return 0;
  std::uint64_t hash = util::hash_combine(0x5343454e41524930ULL,  // "SCENARI0"
                                          static_cast<std::uint64_t>(harvest));
  // The trailing 1.0 stands in for the retired asynchronous engine's
  // dormant-wait factor, so scenario image identities stay unchanged.
  for (const double value :
       {battery_rounds, initial_soc, dropout_soc, reentry_soc,
        harvest_rounds_mean, period_rounds, weather_noise, panel_spread,
        trace_scale, 1.0}) {
    hash = util::hash_combine(hash, f64_bits(value));
  }
  if (trace != nullptr) {
    hash = util::hash_combine(hash, trace->content_hash());
  }
  return hash;
}

ScenarioConfig make_config(const std::string& name) {
  ScenarioConfig config;
  if (name.empty() || name == "none") {
    return config;  // enabled = false
  }
  config.enabled = true;
  if (name == "solar") {
    // Defaults already model the solar sensor fleet: day-long battery,
    // diurnal harvest that sustains SkipTrain's duty cycle by day but
    // browns weak-panel nodes out at night.
    return config;
  }
  if (name == "churn") {
    // Tight batteries under heavy weather: nodes start half-charged,
    // brown out within a few training rounds, and re-enter on a fast
    // harvest cycle — the churning-phone-fleet stress case.
    config.battery_rounds = 6.0;
    config.initial_soc = 0.6;
    config.dropout_soc = 0.1;
    config.reentry_soc = 0.5;
    config.harvest_rounds_mean = 0.45;
    config.period_rounds = 16.0;
    config.weather_noise = 0.8;
    config.panel_spread = 0.6;
    return config;
  }
  constexpr const char* kTracePrefix = "trace:";
  if (name.rfind(kTracePrefix, 0) == 0) {
    const std::string path = name.substr(std::string(kTracePrefix).size());
    if (path.empty()) {
      throw std::invalid_argument(
          "scenario: 'trace:' needs a CSV path (trace:<path>)");
    }
    config.harvest = HarvestKind::kTrace;
    config.trace =
        std::make_shared<const HarvestTrace>(HarvestTrace::load_csv(path));
    config.trace_path = path;
    return config;
  }
  throw std::invalid_argument("scenario: unknown scenario '" + name +
                              "' (expected none|solar|churn|trace:<path>)");
}

std::string scenario_token(const std::string& name) {
  return name.empty() ? "none" : name;
}

FleetScenario::FleetScenario(const ScenarioConfig& config,
                             std::size_t num_nodes, std::uint64_t seed,
                             std::vector<double> train_round_mwh)
    : config_(config), seed_(seed), config_hash_(config.config_hash()) {
  config_.validate();
  if (!config_.enabled) {
    throw std::invalid_argument(
        "FleetScenario: constructed from a disabled config");
  }
  if (train_round_mwh.size() != num_nodes) {
    throw std::invalid_argument(
        "FleetScenario: training-energy list size != nodes");
  }
  capacity_mwh_.resize(num_nodes);
  harvest_unit_mwh_.resize(num_nodes);
  charge_mwh_.resize(num_nodes);
  down_.assign(num_nodes, 0);
  const std::uint64_t panel_seed = util::hash_combine(seed_, kPanelPurpose);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    const double unit = train_round_mwh[i];
    if (unit <= 0.0 || !std::isfinite(unit)) {
      throw std::invalid_argument(
          "FleetScenario: per-round training energy must be positive");
    }
    capacity_mwh_[i] = config_.battery_rounds * unit;
    charge_mwh_[i] = config_.initial_soc * capacity_mwh_[i];
    // Per-node panel efficiency in [1 - spread, 1 + spread]: a fixed,
    // seed-derived heterogeneity axis (weak panels churn first).
    const double u = util::stateless_uniform(panel_seed, i, 0);
    const double efficiency =
        1.0 + config_.panel_spread * (2.0 * u - 1.0);
    harvest_unit_mwh_[i] = config_.harvest_rounds_mean * unit * efficiency;
  }
}

double FleetScenario::harvest_sample_mwh(std::size_t node,
                                         std::size_t t) const {
  switch (config_.harvest) {
    case HarvestKind::kNone:
      return 0.0;
    case HarvestKind::kTrace:
      return config_.trace->harvest_mwh(node, t) * config_.trace_scale;
    case HarvestKind::kSolar:
      break;
  }
  // Clipped diurnal sine: day is the positive half of the cycle; the
  // factor pi normalizes E[max(0, sin)] = 1/pi so harvest_unit is the
  // true per-round mean. Weather multiplies in counter-based noise — a
  // pure function of (seed, node, t), so thread count and resume point
  // can never change the sky.
  const double phase = 2.0 * std::numbers::pi *
                       (static_cast<double>(t - 1) / config_.period_rounds);
  const double daylight = std::max(0.0, std::sin(phase));
  const double u =
      util::stateless_uniform(util::hash_combine(seed_, kWeatherPurpose),
                              node, t);
  const double weather =
      std::max(0.0, 1.0 + config_.weather_noise * (2.0 * u - 1.0));
  return harvest_unit_mwh_[node] * std::numbers::pi * daylight * weather;
}

void FleetScenario::step_node(std::size_t node, std::size_t t) {
  const double harvest = harvest_sample_mwh(node, t);
  const double stored =
      std::min(capacity_mwh_[node] - charge_mwh_[node], harvest);
  charge_mwh_[node] += stored;
  harvested_mwh_total_ += stored;

  const bool duty_ok = config_.harvest != HarvestKind::kTrace ||
                       config_.trace->available(node, t);
  const double capacity = capacity_mwh_[node];
  if (down_[node]) {
    // Hysteresis: re-enter only once charge clears the HIGHER threshold
    // (and the duty cycle allows it), so a node at the boundary does not
    // flap in and out every round.
    if (duty_ok && charge_mwh_[node] >= config_.reentry_soc * capacity) {
      down_[node] = 0;
    }
  } else {
    if (!duty_ok || charge_mwh_[node] < config_.dropout_soc * capacity) {
      down_[node] = 1;
    }
  }
  ++steps_total_;
  if (down_[node]) ++down_steps_total_;
}

void FleetScenario::begin_round(std::size_t t) {
  for (std::size_t i = 0; i < num_nodes(); ++i) step_node(i, t);
}

bool FleetScenario::try_spend(std::size_t node, double mwh) {
  if (charge_mwh_[node] >= mwh) {
    charge_mwh_[node] -= mwh;
    return true;
  }
  // Brownout: the battery empties mid-work and the node dies on the spot
  // (its model freezes; re-entry is step_node's hysteresis check).
  charge_mwh_[node] = 0.0;
  down_[node] = 1;
  ++brownouts_total_;
  return false;
}

double FleetScenario::mean_availability() const {
  if (steps_total_ == 0) return 1.0;
  return 1.0 - static_cast<double>(down_steps_total_) /
                   static_cast<double>(steps_total_);
}

void FleetScenario::save_state(ckpt::ImageWriter& writer) const {
  writer.f64_vec(charge_mwh_);
  writer.u64(down_.size());
  if (!down_.empty()) writer.bytes(down_.data(), down_.size());
  writer.u64(steps_total_);
  writer.u64(down_steps_total_);
  writer.u64(brownouts_total_);
  writer.f64(harvested_mwh_total_);
}

void FleetScenario::restore_state(ckpt::ImageReader& reader) {
  const std::size_t n = num_nodes();
  std::vector<double> charge = reader.f64_vec();
  if (charge.size() != n) {
    throw std::runtime_error("fleet image: scenario charge vector size " +
                             std::to_string(charge.size()) + " != nodes " +
                             std::to_string(n));
  }
  const std::uint64_t flags = reader.u64();
  if (flags != n) {
    throw std::runtime_error("fleet image: scenario down-flag count " +
                             std::to_string(flags) + " != nodes " +
                             std::to_string(n));
  }
  std::vector<char> down(n);
  if (n != 0) reader.bytes(down.data(), down.size());
  for (const char flag : down) {
    if (flag != 0 && flag != 1) {
      throw std::runtime_error("fleet image: scenario down flag not 0/1");
    }
  }
  const std::uint64_t steps = reader.u64();
  const std::uint64_t down_steps = reader.u64();
  const std::uint64_t brownouts = reader.u64();
  const double harvested = reader.f64();

  charge_mwh_ = std::move(charge);
  down_ = std::move(down);
  steps_total_ = static_cast<std::size_t>(steps);
  down_steps_total_ = static_cast<std::size_t>(down_steps);
  brownouts_total_ = static_cast<std::size_t>(brownouts);
  harvested_mwh_total_ = harvested;
}

}  // namespace skiptrain::scenario
