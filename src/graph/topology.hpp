// Communication topologies G = (V, E) for decentralized learning.
//
// The paper evaluates d-regular graphs with d ∈ {6, 8, 10} on 256 nodes;
// this module also provides ring / fully-connected / circulant generators
// for the ablation benches and examples, and the `skiptrain-csr v1` file
// format for arbitrary sparse graphs. Every graph, whichever way it was
// made, is one Topology: flat CSR adjacency, built once from an undirected
// edge list and immutable afterwards.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace skiptrain::graph {

/// Undirected simple graph as flat CSR: row_ptr[n+1] plus every row's
/// neighbor ids, strictly ascending — O(n + edges) with no per-node
/// allocations.
class Topology {
 public:
  using Edge = std::pair<std::size_t, std::size_t>;

  Topology() = default;

  /// Builds the graph from undirected edges, each listed once in either
  /// orientation. Out-of-range endpoints, self-loops and duplicate edges
  /// are rejected with std::invalid_argument.
  Topology(std::size_t num_nodes, const std::vector<Edge>& edges);

  /// Loads the text format below; every structural violation throws
  /// std::runtime_error with file:line context (mirrors the harvest-trace
  /// loader hardening):
  ///
  ///   skiptrain-csr v1
  ///   nodes <n>
  ///   <deg> <c1> ... <cdeg>     one line per node, columns strictly
  ///                             ascending, no self-loops, symmetric,
  ///                             connected
  static Topology load_file(const std::string& path);
  static Topology parse(std::istream& in, const std::string& name);

  std::size_t num_nodes() const { return row_ptr_.size() - 1; }
  std::size_t num_edges() const { return cols_.size() / 2; }
  std::size_t degree(std::size_t node) const {
    return row_ptr_[node + 1] - row_ptr_[node];
  }
  std::span<const std::uint32_t> neighbors(std::size_t node) const {
    return {cols_.data() + row_ptr_[node], degree(node)};
  }

  bool has_edge(std::size_t a, std::size_t b) const;

  /// True when every node has the same degree.
  bool is_regular() const;

  /// BFS connectivity test.
  bool is_connected() const;

  /// Graph diameter via BFS from every node; O(V·E). Returns 0 for graphs
  /// with < 2 nodes and SIZE_MAX for disconnected graphs.
  std::size_t diameter() const;

  std::string describe() const;

  /// Content hash over the full adjacency for checkpoint identity.
  std::uint64_t content_hash() const;

 private:
  /// Hop counts from `source`; SIZE_MAX marks unreachable nodes.
  std::vector<std::size_t> bfs_distances(std::size_t source) const;

  std::vector<std::uint64_t> row_ptr_{0};
  std::vector<std::uint32_t> cols_;
};

/// Edges of the circulant graph over n nodes: (i, i + o mod n) for every
/// offset o and node i, plus (i, i + n/2) for i < n/2 when `half` is set.
/// Offsets must be distinct and in [1, n/2); the caller validates them.
[[nodiscard]] std::vector<Topology::Edge> circulant_edges(
    std::size_t n, std::span<const std::size_t> offsets, bool half);

/// Cycle over n >= 3 nodes (2-regular).
[[nodiscard]] Topology make_ring(std::size_t n);

/// Complete graph over n >= 2 nodes ((n-1)-regular).
[[nodiscard]] Topology make_fully_connected(std::size_t n);

/// Deterministic circulant d-regular graph: node i connects to i ± 1..d/2
/// (and i + n/2 when d is odd, which requires n even). Always connected.
[[nodiscard]] Topology make_circulant(std::size_t n, std::size_t degree);

/// Random d-regular graph: degree-preserving double-edge swaps from the
/// circulant, re-run until connected. Requires n·d even and d < n. This
/// matches the paper's "d-regular topologies" on 256 nodes.
[[nodiscard]] Topology make_random_regular(std::size_t n, std::size_t degree,
                                           util::Rng& rng);

}  // namespace skiptrain::graph
