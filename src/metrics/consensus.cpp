#include "metrics/consensus.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace skiptrain::metrics {

namespace {

/// Shared implementation over any row accessor i -> span<const float>.
template <typename RowFn>
double consensus_impl(std::size_t rows, std::size_t dim, RowFn row) {
  if (rows == 0) return 0.0;
  std::vector<double> mean(dim, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::span<const float> params = row(r);
    for (std::size_t i = 0; i < dim; ++i) {
      mean[i] += static_cast<double>(params[i]);
    }
  }
  const double inv = 1.0 / static_cast<double>(rows);
  for (auto& v : mean) v *= inv;

  double total = 0.0;
  for (std::size_t r = 0; r < rows; ++r) {
    const std::span<const float> params = row(r);
    double sq = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      const double d = static_cast<double>(params[i]) - mean[i];
      sq += d * d;
    }
    total += std::sqrt(sq);
  }
  return total * inv;
}

template <typename RowFn>
double max_pairwise_impl(std::size_t rows, std::size_t dim, RowFn row) {
  double worst = 0.0;
  for (std::size_t a = 0; a < rows; ++a) {
    const std::span<const float> pa = row(a);
    for (std::size_t b = a + 1; b < rows; ++b) {
      const std::span<const float> pb = row(b);
      double sq = 0.0;
      for (std::size_t i = 0; i < dim; ++i) {
        const double d =
            static_cast<double>(pa[i]) - static_cast<double>(pb[i]);
        sq += d * d;
      }
      worst = std::max(worst, std::sqrt(sq));
    }
  }
  return worst;
}

void check_not_ragged(std::span<const std::vector<float>> node_params,
                      const char* what) {
  if (node_params.empty()) return;
  const std::size_t dim = node_params.front().size();
  for (const auto& params : node_params) {
    if (params.size() != dim) {
      throw std::invalid_argument(std::string(what) + ": ragged parameters");
    }
  }
}

}  // namespace

double consensus_distance(plane::ConstMatrixView node_params) {
  return consensus_impl(node_params.rows, node_params.dim,
                        [&](std::size_t i) { return node_params.row(i); });
}

double consensus_distance(std::span<const std::vector<float>> node_params) {
  check_not_ragged(node_params, "consensus_distance");
  const std::size_t dim =
      node_params.empty() ? 0 : node_params.front().size();
  return consensus_impl(node_params.size(), dim, [&](std::size_t i) {
    return std::span<const float>(node_params[i]);
  });
}

double max_pairwise_distance(std::span<const std::vector<float>> node_params) {
  check_not_ragged(node_params, "max_pairwise_distance");
  const std::size_t dim =
      node_params.empty() ? 0 : node_params.front().size();
  return max_pairwise_impl(node_params.size(), dim, [&](std::size_t i) {
    return std::span<const float>(node_params[i]);
  });
}

}  // namespace skiptrain::metrics
