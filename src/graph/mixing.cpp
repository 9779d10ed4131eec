#include "graph/mixing.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "graph/sparse.hpp"
#include "tensor/ops.hpp"
#include "util/thread_pool.hpp"

namespace skiptrain::graph {

namespace {

/// ImplicitKRegular through the builder's graph interface: each row is
/// recomputed into one scratch buffer when the builder asks for it.
class ImplicitRows {
 public:
  explicit ImplicitRows(const ImplicitKRegular& graph)
      : graph_(graph), row_(graph.degree()) {}

  std::size_t num_nodes() const { return graph_.num_nodes(); }
  std::size_t degree(std::size_t /*node*/) const { return graph_.degree(); }
  std::span<const std::size_t> neighbors(std::size_t node) const {
    graph_.neighbors_into(node, row_);
    return row_;
  }

 private:
  const ImplicitKRegular& graph_;
  mutable std::vector<std::size_t> row_;
};

}  // namespace

template <typename Graph>
MixingMatrix MixingMatrix::build_metropolis_hastings(const Graph& graph) {
  const std::size_t n = graph.num_nodes();
  std::size_t entries = 0;
  for (std::size_t i = 0; i < n; ++i) entries += graph.degree(i);
  MixingMatrix mix;
  mix.row_ptr_.reserve(n + 1);
  mix.entries_.reserve(entries);
  mix.self_weight_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    float off_diagonal = 0.0f;
    for (const std::size_t j : graph.neighbors(i)) {
      const auto denom =
          static_cast<float>(std::max(graph.degree(i), graph.degree(j)) + 1);
      const float w = 1.0f / denom;
      mix.entries_.push_back(Entry{j, w});
      off_diagonal += w;
    }
    mix.self_weight_.push_back(1.0f - off_diagonal);
    mix.row_ptr_.push_back(mix.entries_.size());
  }
  return mix;
}

MixingMatrix MixingMatrix::metropolis_hastings(const Topology& topology) {
  return build_metropolis_hastings(topology);
}

MixingMatrix MixingMatrix::metropolis_hastings(const ImplicitKRegular& graph) {
  return build_metropolis_hastings(ImplicitRows(graph));
}

MixingMatrix MixingMatrix::metropolis_hastings(const CsrGraph& graph) {
  return build_metropolis_hastings(graph);
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

}  // namespace

void apply_mixing(const MixingMatrix& mixing, std::span<const float> x_half,
                  std::span<float> x_current, std::size_t dim) {
  const std::size_t n = mixing.num_nodes();
  if (x_half.size() != n * dim || x_current.size() != n * dim) {
    throw std::invalid_argument("graph::apply_mixing: plane size mismatch");
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
    const auto half_slice = [&](std::size_t node) {
      return x_half.subspan(node * dim + begin, len);
    };
    for (std::size_t i = row_lo; i < row_hi; ++i) {
      const auto out = x_current.subspan(i * dim + begin, len);
      const auto nbrs = mixing.neighbor_weights(i);
      const float self_w = mixing.self_weight(i);
      // Group the weighted row reduction into 3- and 2-term fused passes:
      // same add order as one scaled_copy + deg axpys (bitwise identical),
      // but out is written back once per group instead of once per term.
      std::size_t e = 0;
      if (nbrs.size() >= 2) {
        tensor::weighted_sum3(self_w, half_slice(i), nbrs[0].weight,
                              half_slice(nbrs[0].neighbor), nbrs[1].weight,
                              half_slice(nbrs[1].neighbor), out);
        e = 2;
      } else {
        tensor::scaled_copy(self_w, half_slice(i), out);
      }
      for (; e + 2 <= nbrs.size(); e += 2) {
        tensor::axpy2(nbrs[e].weight, half_slice(nbrs[e].neighbor),
                      nbrs[e + 1].weight, half_slice(nbrs[e + 1].neighbor),
                      out);
      }
      if (e < nbrs.size()) {
        tensor::axpy(nbrs[e].weight, half_slice(nbrs[e].neighbor), out);
      }
    }
  });
}

}  // namespace skiptrain::graph
