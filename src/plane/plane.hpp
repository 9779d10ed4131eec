// Contiguous model storage for a simulated fleet.
//
// Every node's flat parameter vector is one row of a row-major [n × dim]
// matrix, so the exchange/aggregate step — the part of a decentralized
// round the paper's cost model cares about — runs as dense linear algebra
// over one allocation instead of n scattered per-layer vectors. Node
// models (nn::Sequential) bind their layer views directly onto plane rows
// (see Sequential::bind_parameter_arena), which removes every
// get_parameters/set_parameters copy from the per-round path.
//
// ParameterPlane double-buffers two such matrices: training writes
// x^{t-1/2} into the current buffer in place, the gossip kernel writes
// x^t into the back buffer, and flip() swaps the roles — aggregation
// never copies a parameter it does not mix.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "util/arena.hpp"

namespace skiptrain::graph {
class MixingMatrix;
}

namespace skiptrain::plane {

/// Non-owning view of a row-major [rows × dim] float matrix.
struct ConstMatrixView {
  const float* data = nullptr;
  std::size_t rows = 0;
  std::size_t dim = 0;

  std::span<const float> row(std::size_t i) const { return {data + i * dim, dim}; }
  std::span<const float> operator[](std::size_t i) const { return row(i); }
  std::span<const float> flat() const { return {data, rows * dim}; }
  std::size_t size() const { return rows; }
  bool empty() const { return rows == 0; }
};

/// Mutable counterpart of ConstMatrixView.
struct MatrixView {
  float* data = nullptr;
  std::size_t rows = 0;
  std::size_t dim = 0;

  std::span<float> row(std::size_t i) const { return {data + i * dim, dim}; }
  std::span<float> operator[](std::size_t i) const { return row(i); }
  std::span<float> flat() const { return {data, rows * dim}; }
  std::size_t size() const { return rows; }
  bool empty() const { return rows == 0; }

  operator ConstMatrixView() const { return {data, rows, dim}; }
};

/// One owned [rows × dim] matrix whose rows serve as parameter arenas
/// (model rows, compact staging pools, decoded wire images). Rows never
/// reallocate after construction, so bound layer views stay valid for the
/// arena's lifetime. Storage sits on a util::AlignedArena: row 0 starts on
/// a 64-byte boundary, large planes are huge-page backed, and contents are
/// zero-initialized (matching the std::vector semantics this replaced).
/// Move-only, like the arena underneath.
class RowArena {
 public:
  RowArena() = default;
  RowArena(std::size_t rows, std::size_t dim)
      : rows_(rows), dim_(dim), arena_(rows * dim * sizeof(float)) {}

  std::size_t rows() const { return rows_; }
  std::size_t dim() const { return dim_; }

  std::span<float> row(std::size_t i) {
    return {arena_.floats() + i * dim_, dim_};
  }
  std::span<const float> row(std::size_t i) const {
    return {arena_.floats() + i * dim_, dim_};
  }

  MatrixView view() { return {arena_.floats(), rows_, dim_}; }
  ConstMatrixView view() const { return {arena_.floats(), rows_, dim_}; }

 private:
  std::size_t rows_ = 0;
  std::size_t dim_ = 0;
  util::AlignedArena arena_;
};

/// Double-buffered fleet storage: current() holds the newest parameters,
/// back() receives the next aggregation result, flip() swaps the roles.
class ParameterPlane {
 public:
  ParameterPlane() = default;
  ParameterPlane(std::size_t nodes, std::size_t dim)
      : buffers_{RowArena(nodes, dim), RowArena(nodes, dim)} {}

  std::size_t nodes() const { return buffers_[0].rows(); }
  std::size_t dim() const { return buffers_[0].dim(); }

  RowArena& current() { return buffers_[cur_]; }
  const RowArena& current() const { return buffers_[cur_]; }
  RowArena& back() { return buffers_[1 - cur_]; }
  const RowArena& back() const { return buffers_[1 - cur_]; }

  void flip() { cur_ = 1 - cur_; }

 private:
  RowArena buffers_[2];
  std::size_t cur_ = 0;
};

/// Gathers the `mask` coordinates of every row of `source` into the
/// compact [rows × mask.size()] matrix `staged` — the staging step of the
/// sparse (masked) exchange, which lets receivers update in place while
/// reading only k pre-update values per neighbor.
void gather_masked_rows(ConstMatrixView source,
                        std::span<const std::uint32_t> mask,
                        MatrixView staged);

/// One gossip round over the plane: runs the tiled gossip kernel
/// (graph::apply_mixing) current() → back(), then flips, so current()
/// holds x_i^t = Σ_j W_ji x_j^{t-1/2} afterwards. Models bound to the
/// previous current() rows must be re-attached by the caller.
void apply_mixing(const graph::MixingMatrix& mixing, ParameterPlane& plane);

/// Same gossip round, but the kernel reads an EXTERNAL [n × dim] source —
/// the staging-boundary seam for quantized exchanges: the engine decodes
/// every wire payload into a staging arena and mixes from there, so the
/// aggregation consumes exactly what crossed the (simulated) wire while
/// the plane keeps its float32 layout. back() receives Σ_j W_ji source_j,
/// then the buffers flip; current() still holds the pre-round rows
/// afterwards in back() (callers that need the exact pre-exchange values,
/// e.g. for the self-weight correction, read them there).
void apply_mixing_from(const graph::MixingMatrix& mixing,
                       ConstMatrixView source, ParameterPlane& plane);

}  // namespace skiptrain::plane
