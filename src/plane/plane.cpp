#include "plane/plane.hpp"

#include <stdexcept>

#include "core/compression.hpp"
#include "graph/mixing.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace skiptrain::plane {

namespace {

/// Telemetry tap for the mixing kernel: rows pushed through the gossip
/// aggregation. Observational only.
void note_rows_mixed(std::size_t rows) {
  static const obs::Counter mixed = obs::counter("gossip.rows_mixed");
  mixed.add(rows);
}

}  // namespace

void gather_masked_rows(ConstMatrixView source,
                        std::span<const std::uint32_t> mask,
                        MatrixView staged) {
  if (staged.rows != source.rows || staged.dim != mask.size()) {
    throw std::invalid_argument("gather_masked_rows: shape mismatch");
  }
  for (std::size_t i = 0; i < source.rows; ++i) {
    core::gather_masked(mask, source.row(i), staged.row(i));
  }
}

void apply_mixing(const graph::MixingMatrix& mixing, ParameterPlane& plane) {
  apply_mixing_from(mixing, plane.current().view(), plane);
}

void apply_mixing_from(
    const graph::MixingMatrix& mixing, ConstMatrixView received,
    ParameterPlane& plane,
    std::optional<std::span<const std::uint8_t>> delivered) {
  if (mixing.num_nodes() != plane.nodes()) {
    throw std::invalid_argument("plane::apply_mixing: node count mismatch");
  }
  if (received.rows != plane.nodes() || received.dim != plane.dim()) {
    throw std::invalid_argument("plane::apply_mixing_from: source shape");
  }
  OBS_SPAN("gossip.apply_mixing");
  note_rows_mixed(received.rows);
  graph::apply_mixing(mixing, plane.current().view().flat(), received.flat(),
                      plane.back().view().flat(), plane.dim(), delivered);
  plane.flip();
}

}  // namespace skiptrain::plane
