// Implicit and CSR-backed sparse topologies for large-fleet gossip.
//
// The materialized Topology stores per-node adjacency vectors — fine at
// the paper's n=256, pure overhead at n=100k+. This layer keeps topology
// memory at O(n·k) flat storage and, for k-regular graphs, replaces
// materialized adjacency entirely with counter-based sampling:
//
//   ImplicitKRegular  seed-derived circulant k-regular graph; any node's
//                     neighbor list is recomputed on demand from (n, k,
//                     seed) — O(k) state per *query*, O(k) state total.
//   CsrGraph          row_ptr/cols flat CSR for arbitrary sparse graphs,
//                     loadable from a hostile-input-hardened text format.
//
// Both feed MixingMatrix::metropolis_hastings (graph/mixing.hpp), the same
// builder the materialized Topology uses, and list neighbors in the same
// ascending order — so a sparse run is byte-comparable against its
// materialized twin at small n.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

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
/// plus the antipodal offset n/2 when k is odd (requires n even). No
/// adjacency is ever materialized — neighbors_into() recomputes a row in
/// O(k) from the offset table, which is the entire topology state.
class ImplicitKRegular {
 public:
  /// Requires n >= 3, 2 <= k < n, and n even when k is odd. Throws
  /// std::invalid_argument when no such circulant exists.
  ImplicitKRegular(std::size_t n, std::size_t k, std::uint64_t seed);

  std::size_t num_nodes() const { return n_; }
  std::size_t degree() const { return k_; }
  std::uint64_t seed() const { return seed_; }
  std::span<const std::size_t> offsets() const { return offsets_; }

  /// Writes node's k neighbors in ascending order into out (size == k).
  void neighbors_into(std::size_t node, std::span<std::size_t> out) const;

  /// Explicit Topology with identical adjacency — the bitwise-equivalence
  /// oracle for tests (O(n·k), so cheap at test-sized fleets).
  Topology materialize() const;

  /// Stable identity of (n, k, seed) — everything the graph is derived
  /// from — for checkpoint-image compatibility checks.
  std::uint64_t config_hash() const;

 private:
  std::size_t n_ = 0;
  std::size_t k_ = 0;
  std::uint64_t seed_ = 0;
  std::vector<std::size_t> offsets_;  ///< ascending ring offsets (excl. half)
  bool has_half_ = false;             ///< antipodal n/2 offset active (odd k)
};

/// Flat CSR adjacency (row_ptr[n+1] + cols[nnz]) for arbitrary sparse
/// graphs — O(n + nnz) with no per-node allocations.
class CsrGraph {
 public:
  CsrGraph() = default;

  /// Flattens an explicit Topology (test oracle path).
  static CsrGraph from_topology(const Topology& topology);

  /// Loads the text format below; every structural violation throws
  /// std::runtime_error with file:line context (mirrors the harvest-trace
  /// loader hardening):
  ///
  ///   skiptrain-csr v1
  ///   nodes <n>
  ///   <deg> <c1> ... <cdeg>     one line per node, columns strictly
  ///                             ascending, no self-loops, symmetric,
  ///                             connected
  static CsrGraph load_file(const std::string& path);
  static CsrGraph parse(std::istream& in, const std::string& name);

  std::size_t num_nodes() const {
    return row_ptr_.empty() ? 0 : row_ptr_.size() - 1;
  }
  std::size_t num_entries() const { return cols_.size(); }  ///< directed
  std::size_t degree(std::size_t node) const {
    return row_ptr_[node + 1] - row_ptr_[node];
  }
  std::span<const std::uint32_t> neighbors(std::size_t node) const {
    return {cols_.data() + row_ptr_[node], degree(node)};
  }

  bool is_connected() const;

  Topology materialize() const;

  /// Content hash over the full adjacency for checkpoint identity.
  std::uint64_t content_hash() const;

 private:
  std::vector<std::uint64_t> row_ptr_;
  std::vector<std::uint32_t> cols_;
};

/// Names kept for the benchmark's gossip probe, which predates the single
/// mixing type. Nothing else uses them.
using SparseMixing = MixingMatrix;
using MixingRef = MixingMatrix;

}  // namespace skiptrain::graph
