// libFuzzer target: the CSR adjacency text parser (`skiptrain-csr v1`).
// Structural violations — asymmetric edges, self-loops, out-of-range
// columns, disconnected graphs, absurd node counts — must throw, never
// crash or allocate proportionally to a lying header. Every graph the
// parser accepts must also give a valid Metropolis–Hastings matrix:
// finite weights, exactly symmetric, and doubly stochastic up to the
// float rounding of one row's self-weight accumulation.
#include <cfloat>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <string>

#include "graph/mixing.hpp"
#include "graph/sparse.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(data), size));
  skiptrain::graph::Topology graph;
  try {
    graph = skiptrain::graph::Topology::parse(in, "fuzz-input");
  } catch (const std::exception&) {
    return 0;
  }
  const auto mixing =
      skiptrain::graph::MixingMatrix::metropolis_hastings(graph);
  std::size_t max_degree = 0;
  for (std::size_t i = 0; i < mixing.num_nodes(); ++i) {
    if (!std::isfinite(mixing.self_weight(i))) std::abort();
    for (const auto& entry : mixing.neighbor_weights(i)) {
      if (!std::isfinite(entry.weight)) std::abort();
    }
    if (mixing.degree(i) > max_degree) max_degree = mixing.degree(i);
  }
  if (mixing.symmetry_error() != 0.0) std::abort();
  if (mixing.stochasticity_error() >
      static_cast<double>(max_degree + 1) * FLT_EPSILON) {
    std::abort();
  }
  return 0;
}
