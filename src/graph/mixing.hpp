// Mixing (gossip) matrices for decentralized averaging.
//
// The aggregation step of D-PSGD / SkipTrain is x_i ← Σ_j W_ji x_j with W
// symmetric and doubly stochastic (Lian et al. 2017). Following the paper,
// W is built from Metropolis–Hastings weights (Xiao & Boyd 2004):
//
//   W_ij = 1 / (max(deg(i), deg(j)) + 1)          for (i,j) ∈ E
//   W_ii = 1 − Σ_{j≠i} W_ij
//
// Stored flat: one row_ptr array, one entry array holding every row's
// off-diagonal weights in ascending neighbor order, and one self-weight
// array, so an n = 100k fleet costs O(n·k) memory with no per-node
// allocations. Every topology (materialized Topology, ImplicitKRegular,
// CsrGraph) goes through the same builder, so equal adjacency gives
// bit-equal weights whichever form the graph came in.
#pragma once

#include <span>
#include <vector>

#include "graph/topology.hpp"

namespace skiptrain::graph {

class ImplicitKRegular;
class CsrGraph;

class MixingMatrix {
 public:
  struct Entry {
    std::size_t neighbor;
    float weight;
  };

  MixingMatrix() = default;

  /// Builds Metropolis–Hastings weights from any of the three adjacency
  /// forms. Each row's self weight is accumulated in float, in ascending
  /// neighbor order.
  static MixingMatrix metropolis_hastings(const Topology& topology);
  static MixingMatrix metropolis_hastings(const ImplicitKRegular& graph);
  static MixingMatrix metropolis_hastings(const CsrGraph& graph);

  /// Uniform global averaging: W = (1/n) 11^T. This is the matrix the
  /// paper's all-reduce baseline (Figure 1) effectively applies.
  static MixingMatrix all_reduce(std::size_t n);

  std::size_t num_nodes() const { return self_weight_.size(); }
  std::size_t degree(std::size_t node) const {
    return row_ptr_[node + 1] - row_ptr_[node];
  }

  float self_weight(std::size_t node) const { return self_weight_[node]; }
  std::span<const Entry> neighbor_weights(std::size_t node) const {
    return {entries_.data() + row_ptr_[node], degree(node)};
  }

  /// Weight between two nodes; 0 when not adjacent (and i != j).
  float weight(std::size_t i, std::size_t j) const;

  /// Materialises the dense n x n matrix (test/diagnostic use only).
  std::vector<double> dense() const;

  /// max_i |Σ_j W_ij − 1| over rows and columns; 0 for a perfectly doubly
  /// stochastic matrix.
  double stochasticity_error() const;

  /// max_{ij} |W_ij − W_ji|.
  double symmetry_error() const;

  /// Second-largest eigenvalue modulus λ2 of W, estimated by power
  /// iteration on the space orthogonal to the all-ones vector. The
  /// spectral gap 1 − λ2 governs gossip mixing speed: larger degree ⇒
  /// larger gap ⇒ fewer synchronization rounds needed, which is exactly
  /// the Γsync trend the paper observes in Figure 3.
  double second_eigenvalue(std::size_t iterations = 200) const;

  double spectral_gap(std::size_t iterations = 200) const {
    return 1.0 - second_eigenvalue(iterations);
  }

 private:
  template <typename Graph>
  static MixingMatrix build_metropolis_hastings(const Graph& graph);

  std::vector<std::size_t> row_ptr_{0};
  std::vector<Entry> entries_;
  std::vector<float> self_weight_;
};

/// The gossip aggregation kernel — the hot loop of a simulated round:
///
///   x_current[i,:] = W_ii · x_half[i,:] + Σ_j W_ij · x_half[j,:]
///
/// `x_half` and `x_current` are row-major [n × dim] parameter planes that
/// must not alias. The plane is cut into (column block × row range) tiles
/// that the thread pool runs in parallel; the tile shape follows from n,
/// dim and the pool size:
///
///   - the whole plane fits the 512 KiB reuse window: one tile, one task;
///   - n ≤ 256, so one block of every row fits that window at ≥ 512 floats
///     wide: column blocks over all rows, each column block of x_half then
///     streams from DRAM once per round instead of deg(i)+1 times;
///   - otherwise: whole-row tiles of contiguous row ranges, so large-n
///     fleets parallelize even when dim is small.
///
/// Every output element gets the same float ops in the same order in any
/// tile (weighted_sum3, then axpy2 pairs, then a trailing axpy, in
/// neighbor order), so the result is bitwise identical to the naive
/// per-row loop at any thread count and tile shape.
void apply_mixing(const MixingMatrix& mixing, std::span<const float> x_half,
                  std::span<float> x_current, std::size_t dim);

}  // namespace skiptrain::graph
