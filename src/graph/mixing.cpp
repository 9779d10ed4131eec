#include "graph/mixing.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/ops.hpp"
#include "util/thread_pool.hpp"

namespace skiptrain::graph {

MixingMatrix MixingMatrix::metropolis_hastings(const Topology& topology) {
  const std::size_t n = topology.num_nodes();
  MixingMatrix mix;
  mix.row_ptr_.reserve(n + 1);
  mix.entries_.reserve(2 * topology.num_edges());
  mix.self_weight_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    float off_diagonal = 0.0f;
    for (const std::size_t j : topology.neighbors(i)) {
      const auto denom = static_cast<float>(
          std::max(topology.degree(i), topology.degree(j)) + 1);
      const float w = 1.0f / denom;
      mix.entries_.push_back(Entry{j, w});
      off_diagonal += w;
    }
    mix.self_weight_.push_back(1.0f - off_diagonal);
    mix.row_ptr_.push_back(mix.entries_.size());
  }
  return mix;
}

MixingMatrix MixingMatrix::all_reduce(std::size_t n) {
  MixingMatrix mix;
  const float w = 1.0f / static_cast<float>(n);
  mix.self_weight_.assign(n, w);
  mix.row_ptr_.reserve(n + 1);
  mix.entries_.reserve(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) mix.entries_.push_back(Entry{j, w});
    }
    mix.row_ptr_.push_back(mix.entries_.size());
  }
  return mix;
}

float MixingMatrix::weight(std::size_t i, std::size_t j) const {
  if (i == j) return self_weight_[i];
  for (const Entry& entry : neighbor_weights(i)) {
    if (entry.neighbor == j) return entry.weight;
  }
  return 0.0f;
}

std::vector<double> MixingMatrix::dense() const {
  const std::size_t n = num_nodes();
  std::vector<double> matrix(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    matrix[i * n + i] = static_cast<double>(self_weight_[i]);
    for (const Entry& entry : neighbor_weights(i)) {
      matrix[i * n + entry.neighbor] = static_cast<double>(entry.weight);
    }
  }
  return matrix;
}

double MixingMatrix::stochasticity_error() const {
  const std::size_t n = num_nodes();
  std::vector<double> col_sum(n, 0.0);
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double row_sum = static_cast<double>(self_weight_[i]);
    col_sum[i] += static_cast<double>(self_weight_[i]);
    for (const Entry& entry : neighbor_weights(i)) {
      row_sum += static_cast<double>(entry.weight);
      col_sum[entry.neighbor] += static_cast<double>(entry.weight);
    }
    worst = std::max(worst, std::abs(row_sum - 1.0));
  }
  for (const double c : col_sum) worst = std::max(worst, std::abs(c - 1.0));
  return worst;
}

double MixingMatrix::symmetry_error() const {
  double worst = 0.0;
  for (std::size_t i = 0; i < num_nodes(); ++i) {
    for (const Entry& entry : neighbor_weights(i)) {
      worst = std::max(worst,
                       std::abs(static_cast<double>(entry.weight) -
                                static_cast<double>(weight(entry.neighbor, i))));
    }
  }
  return worst;
}

double MixingMatrix::second_eigenvalue(std::size_t iterations) const {
  const std::size_t n = num_nodes();
  if (n < 2) return 0.0;

  // Power iteration on the complement of span{1}: since W is symmetric
  // doubly stochastic, 1 is the top eigenvector with eigenvalue 1; after
  // deflating it, the iteration converges to |λ2|.
  std::vector<double> x(n), next(n);
  // Deterministic non-uniform start vector.
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(static_cast<double>(i + 1) * 12.9898) * 43758.5453;
    x[i] -= std::floor(x[i]);
  }

  const auto deflate_and_normalize = [&](std::vector<double>& v) {
    double mean = 0.0;
    for (const double value : v) mean += value;
    mean /= static_cast<double>(n);
    double norm = 0.0;
    for (auto& value : v) {
      value -= mean;
      norm += value * value;
    }
    norm = std::sqrt(norm);
    if (norm > 0.0) {
      for (auto& value : v) value /= norm;
    }
    return norm;
  };

  deflate_and_normalize(x);
  double lambda = 0.0;
  for (std::size_t it = 0; it < iterations; ++it) {
    for (std::size_t i = 0; i < n; ++i) {
      double acc = static_cast<double>(self_weight_[i]) * x[i];
      for (const Entry& entry : neighbor_weights(i)) {
        acc += static_cast<double>(entry.weight) * x[entry.neighbor];
      }
      next[i] = acc;
    }
    lambda = deflate_and_normalize(next);
    std::swap(x, next);
  }
  return lambda;
}

namespace {

/// Floats of x_half one tile may read (512 KiB): the reuse window that
/// lets each neighbor-row slice come from cache instead of DRAM.
constexpr std::size_t kWindowFloats = 512u * 1024u / sizeof(float);
/// Narrowest column block worth tiling over all rows.
constexpr std::size_t kMinBlockFloats = 512;

struct Tiling {
  std::size_t block;       ///< column-block width in floats
  std::size_t row_ranges;  ///< the rows split evenly into this many ranges
};

Tiling pick_tiling(std::size_t n, std::size_t dim, std::size_t workers) {
  if (n * dim <= kWindowFloats) return {dim, 1};
  if (n <= kWindowFloats / kMinBlockFloats) {
    return {std::min(kWindowFloats / n, dim), 1};
  }
  // ~8 row ranges per worker balances the pool without shrinking a
  // range below useful prefetch size.
  return {dim, std::min(n, 8 * workers)};
}

/// out += w·(a − b): one difference term of a row reduction.
void add_difference(float w, std::span<const float> a,
                    std::span<const float> b, std::span<float> out) {
  for (std::size_t k = 0; k < out.size(); ++k) out[k] += w * (a[k] - b[k]);
}

}  // namespace

void apply_mixing(const MixingMatrix& mixing, std::span<const float> x_half,
                  std::span<const float> received, std::span<float> x_current,
                  std::size_t dim,
                  std::optional<std::span<const std::uint8_t>> delivered) {
  const std::size_t n = mixing.num_nodes();
  if (x_half.size() != n * dim || received.size() != n * dim ||
      x_current.size() != n * dim) {
    throw std::invalid_argument("graph::apply_mixing: plane size mismatch");
  }
  if (delivered && delivered->size() != mixing.num_entries()) {
    throw std::invalid_argument("graph::apply_mixing: mask size mismatch");
  }
  if (n == 0 || dim == 0) return;
  const Tiling tiling = pick_tiling(
      n, dim, std::max<std::size_t>(util::ThreadPool::global().size(), 1));
  const std::size_t ranges = tiling.row_ranges;
  const std::size_t col_blocks = (dim + tiling.block - 1) / tiling.block;
  // Tiles are disjoint, so writes never overlap and every output element
  // is computed by exactly one deterministic sequence of float ops
  // regardless of the worker count. Consecutive tiles share a column
  // block, so a worker's chunk of tiles covers contiguous rows.
  util::parallel_for(0, col_blocks * ranges, [&](std::size_t t) {
    const std::size_t begin = (t / ranges) * tiling.block;
    const std::size_t len = std::min(tiling.block, dim - begin);
    const std::size_t row_lo = (t % ranges) * n / ranges;
    const std::size_t row_hi = (t % ranges + 1) * n / ranges;
    // Tile slices of a node's self source and of its received image.
    const auto half = [&](std::size_t node) {
      return x_half.subspan(node * dim + begin, len);
    };
    const auto wire = [&](std::size_t node) {
      return received.subspan(node * dim + begin, len);
    };
    for (std::size_t i = row_lo; i < row_hi; ++i) {
      const auto out = x_current.subspan(i * dim + begin, len);
      const auto nbrs = mixing.neighbor_weights(i);
      if (delivered) {
        const std::uint8_t* flags = delivered->data() + mixing.entry_offset(i);
        tensor::copy(half(i), out);
        for (std::size_t e = 0; e < nbrs.size(); ++e) {
          if (flags[e]) add_difference(nbrs[e].weight, wire(nbrs[e].neighbor),
                                       half(i), out);
        }
        continue;
      }
      const float self_w = mixing.self_weight(i);
      // Group the weighted row reduction into 3- and 2-term fused passes:
      // same add order as one scaled_copy + deg axpys (bitwise identical),
      // but out is written back once per group instead of once per term.
      std::size_t e = 0;
      if (nbrs.size() >= 2) {
        tensor::weighted_sum3(self_w, wire(i), nbrs[0].weight,
                              wire(nbrs[0].neighbor), nbrs[1].weight,
                              wire(nbrs[1].neighbor), out);
        e = 2;
      } else {
        tensor::scaled_copy(self_w, wire(i), out);
      }
      for (; e + 2 <= nbrs.size(); e += 2) {
        tensor::axpy2(nbrs[e].weight, wire(nbrs[e].neighbor),
                      nbrs[e + 1].weight, wire(nbrs[e + 1].neighbor), out);
      }
      if (e < nbrs.size()) {
        tensor::axpy(nbrs[e].weight, wire(nbrs[e].neighbor), out);
      }
      if (received.data() != x_half.data()) {
        add_difference(self_w, half(i), wire(i), out);
      }
    }
  });
}

}  // namespace skiptrain::graph
