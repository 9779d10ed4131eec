#include "sweep/dataset_cache.hpp"

#include "data/synthetic.hpp"
#include "nn/init.hpp"
#include "nn/model_zoo.hpp"
#include "util/rng.hpp"

namespace skiptrain::sweep {

nn::Sequential compact_model(const DataConfig& config) {
  return workload_for(config.dataset) == energy::Workload::kCifar10
             ? nn::make_compact_cifar_model(data::CifarSynConfig{}.feature_dim)
             : nn::make_compact_femnist_model(
                   data::FemnistSynConfig{}.feature_dim);
}

std::shared_ptr<const SharedWorkload> build_workload(
    const DataConfig& config) {
  auto workload = std::make_shared<SharedWorkload>();
  workload->workload = workload_for(config.dataset);
  if (workload->workload == energy::Workload::kCifar10) {
    data::CifarSynConfig data_config;
    data_config.nodes = config.nodes;
    data_config.samples_per_node = config.samples_per_node;
    data_config.test_pool = config.test_pool;
    data_config.seed = config.seed;
    workload->data = data::make_cifar_synthetic(data_config);
  } else {
    data::FemnistSynConfig data_config;
    data_config.nodes = config.nodes;
    data_config.mean_samples_per_node = config.samples_per_node;
    data_config.test_pool = config.test_pool;
    data_config.seed = config.seed;
    workload->data = data::make_femnist_synthetic(data_config);
  }
  workload->prototype = compact_model(config);
  util::Rng rng(config.seed);
  nn::initialize(workload->prototype, rng);
  return workload;
}

std::shared_ptr<const SharedWorkload> DatasetCache::get(
    const DataConfig& config) {
  const std::string key = config.key();
  std::promise<std::shared_ptr<const SharedWorkload>> promise;
  Entry entry;
  bool is_builder = false;
  {
    std::lock_guard lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
      entry = promise.get_future().share();
      entries_.emplace(key, entry);
      is_builder = true;
    } else {
      entry = it->second;
    }
  }
  if (!is_builder) {
    // Wait outside the lock; rethrows a concurrent builder's failure.
    return entry.get();
  }
  // Build outside the lock; requests for other keys proceed concurrently.
  try {
    auto workload = build_workload(config);
    promise.set_value(workload);
    return workload;
  } catch (...) {
    promise.set_exception(std::current_exception());
    // Only a failed builder erases, and inserts only happen when the key
    // is absent, so this entry is still ours — drop it so a later call
    // can retry the build.
    std::lock_guard lock(mutex_);
    entries_.erase(key);
    throw;
  }
}

std::size_t DatasetCache::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

}  // namespace skiptrain::sweep
