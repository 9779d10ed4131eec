// Masked sparse exchange (related-work axis, paper §6: Sparse-Push,
// Alistarh et al., Dhasade et al. "Get More for Less").
//
// Instead of the full parameter vector, every node shares only the k
// coordinates of a round-shared random mask. A receiver treats the other
// coordinates as "no update from this neighbor" — i.e. it keeps its own
// values — which turns the Metropolis-Hastings aggregation into
//
//   x_i ← x_i + Σ_j W_ij · Σ_{c ∈ mask_t} (x_j[c] − x_i[c]) e_c .
//
// With k = dim this is exactly the dense aggregation; with k << dim the
// wire volume drops to k/dim of the dense exchange (every node derives
// the mask from the seed, so no indices travel). bench/ablation_compression
// measures the accuracy cost.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace skiptrain::core {

/// Round-shared random coordinate mask: k distinct coordinates of [0, dim)
/// drawn deterministically from (seed, round), identical across nodes.
///
/// Why not per-node magnitude top-k? Sparsifying the RAW parameter vector
/// by magnitude keeps re-sending the same large weights and never mixes
/// the small ones, so the unsent coordinates drift apart and accuracy
/// collapses (measured in bench/ablation_compression). A mask shared by
/// all nodes in a round costs no index transmission (everyone derives it
/// from the seed), touches every coordinate with equal frequency over
/// time, and degrades gracefully as k shrinks. Returned sorted.
[[nodiscard]] std::vector<std::uint32_t> shared_round_mask(
    std::uint64_t seed, std::size_t round, std::size_t dim, std::size_t k);

/// Gathers the mask coordinates of a dense plane row into a compact array:
/// staged[i] = row[mask[i]]. staged.size() must equal mask.size().
void gather_masked(std::span<const std::uint32_t> mask,
                   std::span<const float> row, std::span<float> staged);

/// The masked aggregation above over staged operands: both parties'
/// masked coordinates have been gathered (gather_masked) into compact
/// pre-update snapshots, so the receiver can aggregate IN PLACE on its
/// plane row —
///   out[mask[i]] += weight * (theirs_staged[i] - mine_staged[i]) —
/// touching only k coordinates instead of copying the dense row first.
/// `out` may alias the row `mine_staged` was gathered from.
void accumulate_staged_difference(std::span<const std::uint32_t> mask,
                                  std::span<const float> theirs_staged,
                                  std::span<const float> mine_staged,
                                  std::span<float> out, float weight);

}  // namespace skiptrain::core
