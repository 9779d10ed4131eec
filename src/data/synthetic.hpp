// Synthetic stand-ins for the paper's CIFAR-10 and FEMNIST workloads.
//
// Rationale (see README.md, "Synthetic workloads"): the accuracy phenomena SkipTrain is
// evaluated on are driven by the *partition statistics*, not by image
// content — §4.7 of the paper attributes the CIFAR/FEMNIST gap difference
// entirely to the 2-shard label skew vs. FEMNIST's homogeneous class
// coverage. Both generators therefore produce Gaussian-prototype
// classification tasks with exactly those partition statistics:
//
//  * CifarSynthetic: 10 classes, sorted-label 2-shard partition (≤ 2 labels
//    per node), IID validation/test pools.
//  * FemnistSynthetic: 62 classes, one "writer" per node with a private
//    style shift and a near-uniform class mixture; validation/test drawn
//    from fresh writers (IID across the population).
//
// Class difficulty is controlled by `class_separation` (distance between
// class prototypes in units of the noise sigma) and `label_noise`.
#pragma once

#include <cstddef>

#include "data/dataset.hpp"

namespace skiptrain::data {

struct CifarSynConfig {
  std::size_t nodes = 256;
  std::size_t samples_per_node = 200;  // ≈ 50000/256 in the real dataset
  std::size_t feature_dim = 64;
  std::size_t num_classes = 10;
  std::size_t shards_per_node = 2;   // the paper's 2-shard split
  std::size_t test_pool = 4000;      // split 50/50 into validation/test
  double class_separation = 2.2;     // prototype scale (noise sigma = 1)
  double label_noise = 0.04;         // fraction of uniformly flipped labels
  std::uint64_t seed = 42;
};

struct FemnistSynConfig {
  std::size_t nodes = 256;
  std::size_t mean_samples_per_node = 180;
  std::size_t feature_dim = 64;
  std::size_t num_classes = 62;
  double writer_style_sigma = 0.3;  // per-writer feature shift magnitude
  double class_mixture_alpha = 5.0; // Dirichlet over classes per writer
  std::size_t test_pool = 4000;
  // Calibrated so converged test accuracy lands in the paper's ~78-79%
  // band (62 well-separated classes, mild writer shift).
  double class_separation = 5.0;
  double label_noise = 0.02;
  std::uint64_t seed = 42;
};

/// Builds the synthetic CIFAR-10 workload with the 2-shard non-IID
/// partition. Deterministic in `config.seed`.
[[nodiscard]] FederatedData make_cifar_synthetic(const CifarSynConfig& config);

/// Builds the synthetic FEMNIST workload with the natural per-writer
/// partition. Deterministic in `config.seed`.
[[nodiscard]] FederatedData make_femnist_synthetic(
    const FemnistSynConfig& config);

}  // namespace skiptrain::data
