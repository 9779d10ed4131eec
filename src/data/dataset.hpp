// Dataset containers for the decentralized-learning workloads.
//
// A Dataset owns a dense [N, d...] feature tensor plus integer labels.
// A DatasetView is a non-owning index subset — each simulated node holds a
// view over the shared training set (its shard D_i), so 256 nodes do not
// replicate sample storage.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace skiptrain::data {

struct Dataset {
  tensor::Tensor features;           // [N, d...] row-major
  std::vector<std::int32_t> labels;  // size N
  std::size_t num_classes = 0;

  std::size_t size() const { return labels.size(); }
  /// Flattened feature count per sample.
  std::size_t feature_dim() const {
    return size() == 0 ? 0 : features.numel() / size();
  }

  /// Throws std::runtime_error when internal invariants are violated
  /// (size mismatch, label out of range).
  void validate() const;
};

/// Non-owning subset of a Dataset, identified by sample indices.
class DatasetView {
 public:
  DatasetView() = default;
  DatasetView(const Dataset* dataset, std::vector<std::size_t> indices);

  /// View over the full dataset.
  static DatasetView whole(const Dataset* dataset);

  std::size_t size() const { return indices_.size(); }
  bool empty() const { return indices_.empty(); }
  const Dataset& dataset() const { return *dataset_; }
  const std::vector<std::size_t>& indices() const { return indices_; }

  /// Assembles a mini-batch by sampling `batch_size` examples uniformly at
  /// random with replacement (the ξ_i ~ D_i draw of Algorithm 1, line 5).
  /// `features` is resized to [batch_size, d...]; labels likewise.
  void sample_batch(util::Rng& rng, std::size_t batch_size,
                    tensor::Tensor& features,
                    std::vector<std::int32_t>& labels) const;

  /// Copies the contiguous index range [start, start+count) into a batch —
  /// used by deterministic evaluation sweeps.
  void fill_range(std::size_t start, std::size_t count,
                  tensor::Tensor& features,
                  std::vector<std::int32_t>& labels) const;

  /// Histogram of labels within this view (size = num_classes).
  std::vector<std::size_t> class_histogram() const;

 private:
  const Dataset* dataset_ = nullptr;
  std::vector<std::size_t> indices_;
};

/// A complete federated workload: the shared training set, the per-node
/// index partition, and the validation/test splits (the paper carves the
/// validation set out of 50% of the test set; the two are disjoint).
struct FederatedData {
  std::string name;
  Dataset train;
  std::vector<std::vector<std::size_t>> node_indices;
  Dataset validation;
  Dataset test;

  std::size_t num_nodes() const { return node_indices.size(); }
  DatasetView node_view(std::size_t node) const;
};

/// Splits `pool` into two disjoint datasets by sampling `first_fraction`
/// of it (without replacement) into the first output.
std::pair<Dataset, Dataset> split_dataset(const Dataset& pool,
                                          double first_fraction,
                                          util::Rng& rng);

}  // namespace skiptrain::data
