#include "sweep/grid.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <tuple>

namespace skiptrain::sweep {

std::string DataConfig::key() const {
  return dataset + "/n" + std::to_string(nodes) + "/s" +
         std::to_string(samples_per_node) + "/t" + std::to_string(test_pool) +
         "/seed" + std::to_string(seed);
}

energy::Workload workload_for(const std::string& dataset) {
  if (dataset == "cifar") return energy::Workload::kCifar10;
  if (dataset == "femnist") return energy::Workload::kFemnist;
  throw std::invalid_argument("workload_for: unknown dataset '" + dataset +
                              "' (expected cifar|femnist)");
}

std::pair<std::size_t, std::size_t> tuned_gammas(std::size_t degree) {
  if (degree <= 6) return {4, 4};
  if (degree <= 8) return {3, 3};
  return {4, 2};
}

namespace {

/// An axis with no explicit values contributes its single default.
template <typename T>
std::vector<T> axis_or(const std::vector<T>& axis, T fallback) {
  if (!axis.empty()) return axis;
  return {fallback};
}

/// Applies the grid's per-trial rules, then budget scaling.
void apply_trial_rules(const SweepGrid& grid, TrialSpec& spec) {
  sim::RunOptions& options = spec.options;
  const std::size_t paper_rounds =
      energy::workload_spec(options.workload).total_rounds;
  if (grid.paper_horizon) options.total_rounds = paper_rounds;
  if (grid.use_tuned_gammas &&
      (options.algorithm == sim::Algorithm::kSkipTrain ||
       options.algorithm == sim::Algorithm::kSkipTrainConstrained)) {
    std::tie(options.gamma_train, options.gamma_sync) =
        tuned_gammas(options.degree);
  }
  if (grid.eval_every_divisor != 0) {
    options.eval_every = std::max<std::size_t>(
        options.total_rounds / grid.eval_every_divisor, 1);
  }
  if (grid.scale_budgets_to_paper) {
    options.budget_scale = static_cast<double>(options.total_rounds) /
                           static_cast<double>(paper_rounds);
  }
}

}  // namespace

std::size_t SweepGrid::trial_count() const {
  std::size_t count = 1;
  for (const std::size_t axis_size :
       {datasets.size(), node_counts.size(), seeds.size(), algorithms.size(),
        degrees.size(), gamma_syncs.size(), gamma_trains.size(),
        sparse_ks.size(), codecs.size(), scenarios.size(), topologies.size(),
        faults.size()}) {
    if (axis_size > std::numeric_limits<std::size_t>::max() / count) {
      throw std::overflow_error(
          "SweepGrid::trial_count: the axes' cross product overflows");
    }
    count *= std::max<std::size_t>(axis_size, 1);
  }
  return count;
}

std::vector<TrialSpec> SweepGrid::expand() const {
  const auto dataset_axis = axis_or(datasets, data.dataset);
  const auto node_axis = axis_or(node_counts, data.nodes);
  const auto seed_axis = axis_or(seeds, base.seed);
  const auto algorithm_axis = axis_or(algorithms, base.algorithm);
  const auto degree_axis = axis_or(degrees, base.degree);
  const auto gamma_sync_axis = axis_or(gamma_syncs, base.gamma_sync);
  const auto gamma_train_axis = axis_or(gamma_trains, base.gamma_train);
  const auto sparse_axis = axis_or(sparse_ks, base.sparse_exchange_k);
  const auto codec_axis = axis_or(codecs, base.exchange_codec);
  const auto scenario_axis = axis_or(scenarios, base.scenario);
  const auto topology_axis = axis_or(topologies, base.topology);
  const auto fault_axis = axis_or(faults, base.faults);

  std::vector<TrialSpec> trials;
  if (trial_count() > kMaxTrials) {
    throw std::length_error("SweepGrid::expand: " +
                            std::to_string(trial_count()) +
                            " trials exceed the cap of " +
                            std::to_string(kMaxTrials));
  }
  trials.reserve(trial_count());
  for (const auto& dataset : dataset_axis) {
    const energy::Workload workload = workload_for(dataset);
    for (const std::size_t nodes : node_axis) {
      for (const std::uint64_t seed : seed_axis) {
        for (const sim::Algorithm algorithm : algorithm_axis) {
          for (const std::size_t degree : degree_axis) {
            for (const std::size_t gamma_sync : gamma_sync_axis) {
              for (const std::size_t gamma_train : gamma_train_axis) {
                for (const std::size_t sparse_k : sparse_axis) {
                  for (const quant::Codec codec : codec_axis) {
                    for (const std::string& scenario : scenario_axis) {
                      for (const std::string& topology : topology_axis) {
                        for (const std::string& fault_spec : fault_axis) {
                          TrialSpec spec;
                          spec.index = trials.size();
                          spec.data = data;
                          spec.data.dataset = dataset;
                          spec.data.nodes = nodes;
                          spec.data.seed = seed;
                          spec.options = base;
                          spec.options.workload = workload;
                          spec.options.seed = seed;
                          spec.options.algorithm = algorithm;
                          spec.options.degree = degree;
                          spec.options.gamma_sync = gamma_sync;
                          spec.options.gamma_train = gamma_train;
                          spec.options.sparse_exchange_k = sparse_k;
                          spec.options.exchange_codec = codec;
                          spec.options.scenario = scenario;
                          spec.options.topology = topology;
                          spec.options.faults = fault_spec;
                          apply_trial_rules(*this, spec);
                          trials.push_back(std::move(spec));
                        }
                      }
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return trials;
}

}  // namespace skiptrain::sweep
