#include "core/compression.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "util/rng.hpp"

namespace skiptrain::core {

std::vector<std::uint32_t> shared_round_mask(std::uint64_t seed,
                                             std::size_t round,
                                             std::size_t dim, std::size_t k) {
  k = std::min(k, dim);
  util::Rng rng(util::hash_combine(seed, 0x3a5c0000ULL + round));
  const std::vector<std::size_t> picks = rng.sample_without_replacement(dim, k);
  std::vector<std::uint32_t> mask(picks.begin(), picks.end());
  std::sort(mask.begin(), mask.end());
  return mask;
}

void gather_masked(std::span<const std::uint32_t> mask,
                   std::span<const float> row, std::span<float> staged) {
  if (staged.size() != mask.size()) {
    throw std::invalid_argument("gather_masked: staged size != mask size");
  }
  for (std::size_t i = 0; i < mask.size(); ++i) {
    assert(mask[i] < row.size());
    staged[i] = row[mask[i]];
  }
}

void accumulate_staged_difference(std::span<const std::uint32_t> mask,
                                  std::span<const float> theirs_staged,
                                  std::span<const float> mine_staged,
                                  std::span<float> out, float weight) {
  if (theirs_staged.size() != mask.size() ||
      mine_staged.size() != mask.size()) {
    throw std::invalid_argument(
        "accumulate_staged_difference: staged size != mask size");
  }
  for (std::size_t i = 0; i < mask.size(); ++i) {
    const std::uint32_t c = mask[i];
    assert(c < out.size());
    out[c] += weight * (theirs_staged[i] - mine_staged[i]);
  }
}

}  // namespace skiptrain::core
