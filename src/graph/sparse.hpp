// Implicit and CSR-backed sparse topologies for large-fleet gossip.
//
// The dense Topology/MixingMatrix pair stores per-node adjacency vectors —
// fine at the paper's n=256, pure overhead at n=100k+. This layer keeps
// topology memory at O(n·k) flat storage and, for k-regular graphs,
// replaces materialized adjacency entirely with counter-based sampling:
//
//   ImplicitKRegular  seed-derived circulant k-regular graph; any node's
//                     neighbor list is recomputed on demand from (n, k,
//                     seed) — O(k) state per *query*, O(k) state total.
//   CsrGraph          row_ptr/cols flat CSR for arbitrary sparse graphs,
//                     loadable from a hostile-input-hardened text format.
//   SparseMixing      Metropolis–Hastings weights over either, stored as
//                     one flat entry array (no per-node vectors).
//   MixingRef         non-owning dense-or-sparse dispatch handle, so the
//                     engines keep a single aggregation call site.
//
// Bit-identity contract: SparseMixing weights are accumulated in exactly
// the order MixingMatrix::metropolis_hastings uses on the materialized
// topology (ascending neighbor, float accumulation), and the sharded
// kernel below reproduces the blocked kernel's per-element op sequence —
// so sparse runs are byte-comparable against the dense oracle at small n.
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

/// Metropolis–Hastings mixing weights over a sparse topology, stored as
/// one flat entry array indexed by a row_ptr — the O(n·k) counterpart of
/// MixingMatrix (which keeps n separate neighbor vectors).
class SparseMixing {
 public:
  using Entry = MixingMatrix::Entry;

  SparseMixing() = default;

  static SparseMixing metropolis_hastings(const ImplicitKRegular& graph);
  static SparseMixing metropolis_hastings(const CsrGraph& graph);

  std::size_t num_nodes() const { return self_weight_.size(); }
  std::size_t degree(std::size_t node) const {
    return row_ptr_[node + 1] - row_ptr_[node];
  }
  float self_weight(std::size_t node) const { return self_weight_[node]; }
  std::span<const Entry> neighbor_weights(std::size_t node) const {
    return {entries_.data() + row_ptr_[node], degree(node)};
  }

 private:
  std::vector<std::size_t> row_ptr_;
  std::vector<Entry> entries_;
  std::vector<float> self_weight_;
};

/// Non-owning handle over either mixing representation. The engine holds
/// one of these, so every aggregation call site reads identically
/// (`mixing_.self_weight(i)`, `mixing_.neighbor_weights(i)`) regardless
/// of which backing store the topology axis selected. Implicit
/// construction from either concrete type keeps existing MixingMatrix
/// call sites source-compatible; the referenced mixing must outlive the
/// handle (same lifetime contract as the references it replaces).
struct MixingRef {
  const MixingMatrix* dense = nullptr;
  const SparseMixing* sparse = nullptr;

  MixingRef() = default;
  MixingRef(const MixingMatrix& m) : dense(&m) {}  // NOLINT(runtime/explicit)
  MixingRef(const SparseMixing& m) : sparse(&m) {}  // NOLINT(runtime/explicit)

  bool is_sparse() const { return sparse != nullptr; }
  std::size_t num_nodes() const {
    return sparse != nullptr ? sparse->num_nodes() : dense->num_nodes();
  }
  float self_weight(std::size_t node) const {
    return sparse != nullptr ? sparse->self_weight(node)
                             : dense->self_weight(node);
  }
  std::span<const MixingMatrix::Entry> neighbor_weights(
      std::size_t node) const {
    return sparse != nullptr ? sparse->neighbor_weights(node)
                             : dense->neighbor_weights(node);
  }
  std::size_t degree(std::size_t node) const {
    return neighbor_weights(node).size();
  }
};

/// Row-sharded gossip kernel: partitions NODES (not columns) into
/// contiguous shards farmed out to the thread pool with shard-affine
/// scheduling — one worker owns a shard's rows end to end, so large-n
/// fleets parallelize even when dim is small (the column-blocked kernel
/// degenerates to 1–2 blocks at n=100k, dim=1k). Each row is reduced with
/// the exact op grouping of apply_mixing_blocked; since every op is
/// elementwise, the result is bitwise identical to the blocked kernel at
/// any shard size or thread count. `shard_rows` = 0 picks a shard that
/// balances pool occupancy against per-shard working-set size.
void apply_mixing_sharded(const MixingRef& mixing,
                          std::span<const float> x_half,
                          std::span<float> x_current, std::size_t dim,
                          std::size_t shard_rows = 0);

}  // namespace skiptrain::graph
