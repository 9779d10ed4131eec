// Consensus diagnostics: how far apart the node models are. Synchronization
// rounds shrink these quantities without spending training energy — the
// mechanism behind SkipTrain's accuracy gains (§3.1, Figure 4).
//
// The primary interface operates on plane rows (one contiguous [n × dim]
// matrix, zero-copy from RoundEngine::node_parameters()); the
// vector-of-vectors overloads remain for callers holding owned snapshots.
#pragma once

#include <span>
#include <vector>

#include "plane/plane.hpp"

namespace skiptrain::metrics {

/// Mean L2 distance of each node's parameter vector from the global
/// average parameter vector ("consensus distance").
[[nodiscard]] double consensus_distance(plane::ConstMatrixView node_params);
[[nodiscard]] double consensus_distance(
    std::span<const std::vector<float>> node_params);

/// Largest pairwise L2 distance between any two node models. O(n²·d); use
/// on small fleets or sampled subsets.
[[nodiscard]] double max_pairwise_distance(
    std::span<const std::vector<float>> node_params);

}  // namespace skiptrain::metrics
