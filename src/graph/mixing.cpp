#include "graph/mixing.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/isa.hpp"
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

/// A tile row's reduction over gathered (tile-slice source, weight) terms:
/// acc = w·src of term 0, or `sub` itself when plain_end is 0; then
/// acc = acc + w·src for terms [1, plain_end) and acc = acc + w·(src − sub)
/// for terms [plain_end, count), in order.
struct Term {
  const float* src;
  float weight;
};
struct RowTerms {
  const Term* terms;
  std::size_t plain_end, count;
  const float* sub;
};

/// Columns [k, k + NV lanes) of one row, held in registers while every
/// term is applied, then stored once. Mem is util::Vec8Unaligned or float.
template <typename Reg, typename Mem, std::size_t NV>
[[gnu::always_inline]] inline
void reduce_chunk(const RowTerms& row, std::size_t k, float* __restrict__ out) {
  constexpr std::size_t w = sizeof(Mem) / sizeof(float);
  const auto at = [k](const float* src, std::size_t v)
      __attribute__((always_inline)) {
    return reinterpret_cast<const Mem*>(src + k + v * w);
  };
  Reg acc[NV], sv[NV];  // sv: the chunk of `sub`
  for (std::size_t v = 0; v < NV; ++v) acc[v] = sv[v] = *at(row.sub, v);
  if (row.plain_end != 0) {
    for (std::size_t v = 0; v < NV; ++v) {
      acc[v] = row.terms[0].weight * *at(row.terms[0].src, v);
    }
  }
  for (std::size_t t = 1; t < row.plain_end; ++t) {
    for (std::size_t v = 0; v < NV; ++v) {
      acc[v] = acc[v] + row.terms[t].weight * *at(row.terms[t].src, v);
    }
  }
  for (std::size_t t = row.plain_end; t < row.count; ++t) {
    const float wt = row.terms[t].weight;
    for (std::size_t v = 0; v < NV; ++v) {
      acc[v] = acc[v] + wt * (*at(row.terms[t].src, v) - sv[v]);
    }
  }
  for (std::size_t v = 0; v < NV; ++v) {
    *reinterpret_cast<Mem*>(out + k + v * w) = acc[v];
  }
}

/// Rows [row_lo, row_hi) of one tile, columns [begin, begin + len): each
/// row gathers its terms in neighbor order, then walks the columns in
/// 32-, 8- and 1-float chunks.
SKIPTRAIN_GEMM_CLONES
void mix_tile(const MixingMatrix& mixing, const float* x_half,
              const float* received, float* x_current, std::size_t dim,
              const std::uint8_t* delivered, std::size_t begin,
              std::size_t len, std::size_t row_lo, std::size_t row_hi) {
  constexpr std::size_t kLanes = 8;  // floats per util::Vec8
  thread_local std::vector<Term> terms;
  for (std::size_t i = row_lo; i < row_hi; ++i) {
    const auto nbrs = mixing.neighbor_weights(i);
    terms.resize(nbrs.size() + 2);
    RowTerms row{terms.data(), 0, 0, x_half + i * dim + begin};
    const auto gather = [&](std::size_t node, float weight) {
      terms[row.count++] = {received + node * dim + begin, weight};
    };
    if (delivered) {
      const std::uint8_t* flags = delivered + mixing.entry_offset(i);
      for (std::size_t e = 0; e < nbrs.size(); ++e) {
        if (flags[e]) gather(nbrs[e].neighbor, nbrs[e].weight);
      }
    } else {
      gather(i, mixing.self_weight(i));
      for (const MixingMatrix::Entry& entry : nbrs) {
        gather(entry.neighbor, entry.weight);
      }
      row.plain_end = row.count;
      if (received != x_half) {  // the exact self fix: + W_ii·(x_i − x̂_i)
        terms[row.count++] = {row.sub, mixing.self_weight(i)};
        row.sub = received + i * dim + begin;
      }
    }
    float* out = x_current + i * dim + begin;
    std::size_t k = 0;
    for (; k + 4 * kLanes <= len; k += 4 * kLanes) {
      reduce_chunk<util::Vec8, util::Vec8Unaligned, 4>(row, k, out);
    }
    for (; k + kLanes <= len; k += kLanes) {
      reduce_chunk<util::Vec8, util::Vec8Unaligned, 1>(row, k, out);
    }
    for (; k < len; ++k) reduce_chunk<float, float, 1>(row, k, out);
  }
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
  const std::uint8_t* flags = delivered ? delivered->data() : nullptr;
  // Tiles are disjoint, so writes never overlap and every output element
  // is computed by exactly one deterministic sequence of float ops
  // regardless of the worker count. Consecutive tiles share a column
  // block, so a worker's chunk of tiles covers contiguous rows.
  util::parallel_for(0, col_blocks * ranges, [&](std::size_t t) {
    const std::size_t begin = (t / ranges) * tiling.block;
    mix_tile(mixing, x_half.data(), received.data(), x_current.data(), dim,
             flags, begin, std::min(tiling.block, dim - begin),
             (t % ranges) * n / ranges, (t % ranges + 1) * n / ranges);
  });
}

}  // namespace skiptrain::graph
