#include "graph/topology.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>

namespace skiptrain::graph {

namespace {

constexpr std::size_t kUnreached = std::numeric_limits<std::size_t>::max();

[[noreturn]] void csr_fail(const std::string& name, std::size_t line,
                           const std::string& what) {
  throw std::runtime_error("csr file " + name + ":" + std::to_string(line) +
                           ": " + what);
}

bool next_line(std::istream& in, std::string& line, std::size_t& line_no) {
  if (!std::getline(in, line)) return false;
  ++line_no;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return true;
}

/// Strict decimal parse: digits only, no sign, no overflow.
bool parse_u64(const std::string& token, std::uint64_t& out) {
  if (token.empty() || token.size() > 19 ||
      token.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  out = 0;
  for (const char c : token) {
    out = out * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return true;
}

}  // namespace

Topology::Topology(std::size_t num_nodes, const std::vector<Edge>& edges) {
  if (num_nodes > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("Topology: node count exceeds uint32");
  }
  // Count, then fill: one pass sizes every row, a second scatters both
  // directions of each edge, and a per-row sort puts neighbors in the
  // ascending order the mixing builder and the hashes rely on.
  row_ptr_.assign(num_nodes + 1, 0);
  for (const auto& [a, b] : edges) {
    if (a >= num_nodes || b >= num_nodes) {
      throw std::invalid_argument("Topology: node out of range");
    }
    if (a == b) throw std::invalid_argument("Topology: self-loop");
    ++row_ptr_[a + 1];
    ++row_ptr_[b + 1];
  }
  std::partial_sum(row_ptr_.begin(), row_ptr_.end(), row_ptr_.begin());
  cols_.resize(row_ptr_.back());
  std::vector<std::uint64_t> next(row_ptr_.begin(), row_ptr_.end() - 1);
  for (const auto& [a, b] : edges) {
    cols_[next[a]++] = static_cast<std::uint32_t>(b);
    cols_[next[b]++] = static_cast<std::uint32_t>(a);
  }
  for (std::size_t i = 0; i < num_nodes; ++i) {
    const auto first = cols_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[i]);
    const auto last =
        cols_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[i + 1]);
    std::sort(first, last);
    if (std::adjacent_find(first, last) != last) {
      throw std::invalid_argument("Topology: duplicate edge");
    }
  }
}

Topology Topology::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("csr file " + path + ": cannot open");
  }
  return parse(in, path);
}

Topology Topology::parse(std::istream& in, const std::string& name) {
  std::string line;
  std::size_t line_no = 0;
  if (!next_line(in, line, line_no) || line != "skiptrain-csr v1") {
    csr_fail(name, 1, "bad magic, expected 'skiptrain-csr v1'");
  }
  if (!next_line(in, line, line_no)) {
    csr_fail(name, 2, "missing 'nodes <n>' line");
  }
  std::istringstream header(line);
  std::string key, token, extra;
  if (!(header >> key >> token) || key != "nodes" || (header >> extra)) {
    csr_fail(name, 2, "expected 'nodes <n>'");
  }
  std::uint64_t n64 = 0;
  if (!parse_u64(token, n64) || n64 == 0 || n64 > 100'000'000ULL) {
    csr_fail(name, 2, "node count out of range");
  }
  const std::size_t n = static_cast<std::size_t>(n64);

  Topology graph;
  graph.row_ptr_.reserve(n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    if (!next_line(in, line, line_no)) {
      csr_fail(name, line_no + 1,
               "truncated: missing adjacency row for node " +
                   std::to_string(i));
    }
    std::istringstream row(line);
    if (!(row >> token)) csr_fail(name, line_no, "empty adjacency row");
    std::uint64_t deg = 0;
    if (!parse_u64(token, deg)) {
      csr_fail(name, line_no, "bad degree token '" + token + "'");
    }
    if (deg >= n) csr_fail(name, line_no, "degree exceeds n-1");
    std::uint64_t prev = 0;
    for (std::uint64_t e = 0; e < deg; ++e) {
      if (!(row >> token)) {
        csr_fail(name, line_no, "row has fewer columns than its degree");
      }
      std::uint64_t col = 0;
      if (!parse_u64(token, col)) {
        csr_fail(name, line_no, "bad column token '" + token + "'");
      }
      if (col >= n) csr_fail(name, line_no, "column out of range");
      if (col == i) csr_fail(name, line_no, "self-loop");
      if (e > 0 && col <= prev) {
        csr_fail(name, line_no, "columns must be strictly ascending");
      }
      prev = col;
      graph.cols_.push_back(static_cast<std::uint32_t>(col));
    }
    if (row >> token) {
      csr_fail(name, line_no, "trailing tokens after declared degree");
    }
    graph.row_ptr_.push_back(graph.cols_.size());
  }
  while (next_line(in, line, line_no)) {
    if (line.find_first_not_of(" \t") != std::string::npos) {
      csr_fail(name, line_no, "trailing content after last adjacency row");
    }
  }
  // Gossip weights assume an undirected graph: every (i, j) needs its
  // reverse entry.
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::uint32_t j : graph.neighbors(i)) {
      if (!graph.has_edge(j, i)) {
        csr_fail(name, i + 3,
                 "asymmetric edge (" + std::to_string(i) + ", " +
                     std::to_string(j) + ")");
      }
    }
  }
  if (!graph.is_connected()) {
    throw std::runtime_error("csr file " + name + ": graph is not connected");
  }
  return graph;
}

bool Topology::has_edge(std::size_t a, std::size_t b) const {
  const auto row = neighbors(a);
  return std::binary_search(row.begin(), row.end(), b);
}

bool Topology::is_regular() const {
  for (std::size_t i = 1; i < num_nodes(); ++i) {
    if (degree(i) != degree(0)) return false;
  }
  return true;
}

std::vector<std::size_t> Topology::bfs_distances(std::size_t source) const {
  std::vector<std::size_t> dist(num_nodes(), kUnreached);
  std::vector<std::size_t> queue{source};
  queue.reserve(num_nodes());
  dist[source] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::size_t node = queue[head];
    for (const std::uint32_t next : neighbors(node)) {
      if (dist[next] == kUnreached) {
        dist[next] = dist[node] + 1;
        queue.push_back(next);
      }
    }
  }
  return dist;
}

bool Topology::is_connected() const {
  if (num_nodes() < 2) return true;
  const std::vector<std::size_t> dist = bfs_distances(0);
  return std::find(dist.begin(), dist.end(), kUnreached) == dist.end();
}

std::size_t Topology::diameter() const {
  if (num_nodes() < 2) return 0;
  std::size_t best = 0;
  for (std::size_t source = 0; source < num_nodes(); ++source) {
    for (const std::size_t d : bfs_distances(source)) {
      if (d == kUnreached) return kUnreached;  // disconnected
      best = std::max(best, d);
    }
  }
  return best;
}

std::string Topology::describe() const {
  std::ostringstream out;
  out << "Topology(n=" << num_nodes() << ", edges=" << num_edges();
  if (is_regular() && num_nodes() > 0) {
    out << ", " << degree(0) << "-regular";
  }
  out << ", connected=" << (is_connected() ? "yes" : "no") << ")";
  return out.str();
}

std::uint64_t Topology::content_hash() const {
  std::uint64_t h = util::hash_combine(0x637372ULL, num_nodes());
  for (const std::uint64_t r : row_ptr_) h = util::hash_combine(h, r);
  for (const std::uint32_t c : cols_) h = util::hash_combine(h, c);
  return h;
}

std::vector<Topology::Edge> circulant_edges(
    std::size_t n, std::span<const std::size_t> offsets, bool half) {
  std::vector<Topology::Edge> edges;
  edges.reserve(n * offsets.size() + (half ? n / 2 : 0));
  for (const std::size_t offset : offsets) {
    for (std::size_t i = 0; i < n; ++i) edges.emplace_back(i, (i + offset) % n);
  }
  if (half) {
    for (std::size_t i = 0; i < n / 2; ++i) edges.emplace_back(i, i + n / 2);
  }
  return edges;
}

Topology make_ring(std::size_t n) {
  if (n < 3) throw std::invalid_argument("make_ring: need n >= 3");
  const std::size_t offset = 1;
  return Topology(n, circulant_edges(n, {&offset, 1}, false));
}

Topology make_fully_connected(std::size_t n) {
  if (n < 2) throw std::invalid_argument("make_fully_connected: need n >= 2");
  std::vector<Topology::Edge> edges;
  edges.reserve(n * (n - 1) / 2);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) edges.emplace_back(i, j);
  }
  return Topology(n, edges);
}

Topology make_circulant(std::size_t n, std::size_t degree) {
  if (degree >= n) {
    throw std::invalid_argument("make_circulant: degree must be < n");
  }
  if (degree % 2 == 1 && n % 2 == 1) {
    throw std::invalid_argument(
        "make_circulant: odd degree requires an even node count");
  }
  std::vector<std::size_t> offsets(degree / 2);
  std::iota(offsets.begin(), offsets.end(), std::size_t{1});
  return Topology(n, circulant_edges(n, offsets, degree % 2 == 1));
}

Topology make_random_regular(std::size_t n, std::size_t degree,
                             util::Rng& rng) {
  if (degree >= n) {
    throw std::invalid_argument("make_random_regular: degree must be < n");
  }
  if ((n * degree) % 2 != 0) {
    throw std::invalid_argument("make_random_regular: n*degree must be even");
  }
  // Double-edge-swap randomization: start from the deterministic circulant
  // (always d-regular and connected) and run the degree-preserving swap
  // Markov chain — pick edges (a,b), (c,d), replace with (a,c), (b,d) when
  // the result stays simple. Unlike whole-graph rejection of the pairing
  // model (whose success probability decays like exp(-(d-1)/2 - (d-1)²/4)
  // and is ~1e-4 already at d = 6), every proposal here is cheap and the
  // chain provably mixes to the uniform distribution over d-regular simple
  // graphs. A final connectivity check re-runs the chain if a swap
  // disconnected the graph (rare for d >= 3).
  constexpr int kMaxRestarts = 50;
  for (int restart = 0; restart < kMaxRestarts; ++restart) {
    const Topology base = make_circulant(n, degree);
    std::vector<Topology::Edge> edges;
    edges.reserve(base.num_edges());
    std::set<Topology::Edge> edge_set;
    for (std::size_t a = 0; a < n; ++a) {
      for (const std::size_t b : base.neighbors(a)) {
        if (a < b) {
          edges.emplace_back(a, b);
          edge_set.emplace(a, b);
        }
      }
    }
    const auto has = [&](std::size_t a, std::size_t b) {
      if (a > b) std::swap(a, b);
      return edge_set.contains({a, b});
    };

    const std::size_t target_swaps = 20 * edges.size();
    std::size_t performed = 0;
    std::size_t proposals = 0;
    const std::size_t max_proposals = 200 * edges.size();
    while (performed < target_swaps && proposals < max_proposals) {
      ++proposals;
      const std::size_t i =
          static_cast<std::size_t>(rng.uniform_int(edges.size()));
      const std::size_t j =
          static_cast<std::size_t>(rng.uniform_int(edges.size()));
      if (i == j) continue;
      auto [a, b] = edges[i];
      auto [c, d] = edges[j];
      // Two orientations; pick one uniformly: (a,c)+(b,d) or (a,d)+(b,c).
      if (rng.bernoulli(0.5)) std::swap(c, d);
      if (a == c || a == d || b == c || b == d) continue;
      if (has(a, c) || has(b, d)) continue;

      edge_set.erase({std::min(edges[i].first, edges[i].second),
                      std::max(edges[i].first, edges[i].second)});
      edge_set.erase({std::min(edges[j].first, edges[j].second),
                      std::max(edges[j].first, edges[j].second)});
      edges[i] = {std::min(a, c), std::max(a, c)};
      edges[j] = {std::min(b, d), std::max(b, d)};
      edge_set.insert(edges[i]);
      edge_set.insert(edges[j]);
      ++performed;
    }

    Topology topo(n, edges);
    if (topo.is_connected()) return topo;
  }
  // Unreachable in practice for connected-after-swaps d >= 2 graphs; keep
  // the deterministic construction as a last resort.
  return make_circulant(n, degree);
}

}  // namespace skiptrain::graph
