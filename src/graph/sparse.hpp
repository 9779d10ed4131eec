// The `topology=` axis and the seed-derived k-regular graph of large-fleet
// runs.
//
// A run's graph is one Topology (graph/topology.hpp) whatever its source:
// the paper's random d-regular graph (dense, the default), the circulant
// ImplicitKRegular below, or a `skiptrain-csr v1` file. Each is O(n·k)
// flat CSR, feeds the one MixingMatrix::metropolis_hastings builder
// (graph/mixing.hpp) and lists neighbors in ascending order — so equal
// adjacency gives bit-equal runs whichever source it came from.
#pragma once

#include <cstdint>
#include <string>

#include "graph/mixing.hpp"
#include "graph/topology.hpp"

namespace skiptrain::graph {

/// Parsed `topology=` axis value: dense | kregular:<k> | csr:<path>.
struct TopologySpec {
  enum class Kind { kDense, kKRegular, kCsr };

  Kind kind = Kind::kDense;
  std::size_t k = 0;     ///< kregular degree
  std::string path;      ///< csr file path

  /// Parses a sweep-axis token; throws std::invalid_argument on anything
  /// else. "" and "dense" both mean the dense random-regular default.
  static TopologySpec parse(const std::string& token);

  /// Canonical token ("dense", "kregular:6", "csr:<path>").
  std::string token() const;
};

/// Canonical token for a raw topology option string ("" → "dense").
std::string topology_token(const std::string& raw);

/// Seed-derived circulant k-regular graph: node i's neighbors are
/// {(i ± o) mod n} over a set of distinct ring offsets (offset 1 always
/// included, so the graph contains a Hamiltonian ring and is connected),
/// plus the antipodal offset n/2 when k is odd (requires n even).
class ImplicitKRegular : public Topology {
 public:
  /// Requires n >= 3, 2 <= k < n, and n even when k is odd. Throws
  /// std::invalid_argument when no such circulant exists.
  ImplicitKRegular(std::size_t n, std::size_t k, std::uint64_t seed);

  /// Stable identity of (n, k, seed) — everything the graph is derived
  /// from — for checkpoint-image compatibility checks.
  std::uint64_t config_hash() const { return config_hash_; }

 private:
  std::uint64_t config_hash_ = 0;
};

/// Names kept for the benchmark's gossip probe, which predates the single
/// mixing type. Nothing else uses them.
using SparseMixing = MixingMatrix;
using MixingRef = MixingMatrix;

}  // namespace skiptrain::graph
