// Shared immutable dataset/model cache for the sweep runner.
//
// A parameter grid typically holds the dataset fixed while sweeping the
// algorithm side, so trials must not rebuild (or worse, replicate) the
// federated partition per trial. The cache keys on DataConfig and hands
// out shared_ptr<const SharedWorkload>; concurrent requests for the same
// key block on a single build (std::shared_future), every later request
// is a lock-and-lookup.
#pragma once

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "data/dataset.hpp"
#include "energy/device.hpp"
#include "nn/sequential.hpp"
#include "sweep/grid.hpp"

namespace skiptrain::sweep {

/// One dataset build plus the matching initialised prototype model.
/// Immutable after construction; safe to share across trial threads
/// (the engine clones the prototype per node and only reads the data).
struct SharedWorkload {
  data::FederatedData data;
  nn::Sequential prototype;
  energy::Workload workload = energy::Workload::kCifar10;
};

/// The uninitialised compact model that `config.dataset` trains: the one
/// dataset → model mapping, shared by build_workload and the sweep
/// runner's cost estimate (which needs the parameter count, not the data).
[[nodiscard]] nn::Sequential compact_model(const DataConfig& config);

/// Builds a workload directly (no caching): synthetic dataset per
/// DataConfig plus compact_model initialised from config.seed. This is
/// the one place the repo maps a DataConfig onto the data factories.
[[nodiscard]] std::shared_ptr<const SharedWorkload> build_workload(
    const DataConfig& config);

class DatasetCache {
 public:
  /// Returns the cached workload for `config`, building it on first use.
  /// Thread-safe; a build failure is rethrown to every waiter and not
  /// cached, so a later call can retry.
  std::shared_ptr<const SharedWorkload> get(const DataConfig& config);

  /// Number of distinct workloads built so far.
  std::size_t size() const;

 private:
  using Entry = std::shared_future<std::shared_ptr<const SharedWorkload>>;

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

}  // namespace skiptrain::sweep
