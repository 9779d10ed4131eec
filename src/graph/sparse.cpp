#include "graph/sparse.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/rng.hpp"

namespace skiptrain::graph {

// --- TopologySpec ----------------------------------------------------------

TopologySpec TopologySpec::parse(const std::string& token) {
  TopologySpec spec;
  if (token.empty() || token == "dense") return spec;
  const auto fail = [&] {
    throw std::invalid_argument("topology '" + token +
                                "': expected dense | kregular:<k> | "
                                "csr:<path>");
  };
  if (token.rfind("kregular:", 0) == 0) {
    const std::string arg = token.substr(9);
    if (arg.empty() || arg.size() > 7 ||
        arg.find_first_not_of("0123456789") != std::string::npos) {
      fail();
    }
    const unsigned long long k = std::stoull(arg);
    if (k < 2) {
      throw std::invalid_argument("topology '" + token +
                                  "': kregular degree must be >= 2");
    }
    spec.kind = Kind::kKRegular;
    spec.k = static_cast<std::size_t>(k);
    return spec;
  }
  if (token.rfind("csr:", 0) == 0) {
    spec.path = token.substr(4);
    if (spec.path.empty()) fail();
    spec.kind = Kind::kCsr;
    return spec;
  }
  fail();
  return spec;  // unreachable
}

std::string TopologySpec::token() const {
  switch (kind) {
    case Kind::kDense:
      return "dense";
    case Kind::kKRegular:
      return "kregular:" + std::to_string(k);
    case Kind::kCsr:
      return "csr:" + path;
  }
  return "dense";
}

std::string topology_token(const std::string& raw) {
  return raw.empty() ? "dense" : raw;
}

// --- ImplicitKRegular ------------------------------------------------------

ImplicitKRegular::ImplicitKRegular(std::size_t n, std::size_t k,
                                   std::uint64_t seed)
    : n_(n), k_(k), seed_(seed) {
  if (n < 3) throw std::invalid_argument("ImplicitKRegular: need n >= 3");
  if (k < 2 || k >= n) {
    throw std::invalid_argument("ImplicitKRegular: need 2 <= k < n");
  }
  if (k % 2 == 1) {
    if (n % 2 == 1) {
      throw std::invalid_argument(
          "ImplicitKRegular: odd degree requires even n");
    }
    has_half_ = true;
  }
  const std::size_t m = k / 2;
  const std::size_t max_off = n % 2 == 0 ? n / 2 - 1 : (n - 1) / 2;
  if (m > max_off) {
    throw std::invalid_argument("ImplicitKRegular: degree too large for n");
  }
  // Offset 1 is always present, so the graph contains the Hamiltonian ring
  // 0-1-...-n-1-0 and is connected for every seed; the remaining offsets
  // are a seed-derived distinct sample of [2, max_off].
  offsets_.reserve(m);
  offsets_.push_back(1);
  if (m > 1) {
    util::Rng rng(util::hash_combine(seed, 0x6b726567756c6172ULL));
    for (const std::size_t idx :
         rng.sample_without_replacement(max_off - 1, m - 1)) {
      offsets_.push_back(idx + 2);
    }
    std::sort(offsets_.begin(), offsets_.end());
  }
}

void ImplicitKRegular::neighbors_into(std::size_t node,
                                      std::span<std::size_t> out) const {
  if (out.size() != k_) {
    throw std::invalid_argument("ImplicitKRegular: neighbor buffer size");
  }
  std::size_t w = 0;
  for (const std::size_t o : offsets_) {
    out[w++] = (node + o) % n_;
    out[w++] = (node + n_ - o) % n_;
  }
  if (has_half_) out[w++] = (node + n_ / 2) % n_;
  // k is small; the sort keeps rows in the ascending order Topology's
  // sorted adjacency (and thus the dense MixingMatrix) produces.
  std::sort(out.begin(), out.end());
}

Topology ImplicitKRegular::materialize() const {
  Topology topology(n_);
  std::vector<std::size_t> buf(k_);
  for (std::size_t i = 0; i < n_; ++i) {
    neighbors_into(i, buf);
    for (const std::size_t j : buf) {
      // Every undirected edge shows up in both endpoint rows; add it once.
      if (i < j) topology.add_edge(i, j);
    }
  }
  return topology;
}

std::uint64_t ImplicitKRegular::config_hash() const {
  std::uint64_t h = util::hash_combine(0x6b726567756c6172ULL, n_);
  h = util::hash_combine(h, k_);
  h = util::hash_combine(h, seed_);
  return h;
}

// --- CsrGraph --------------------------------------------------------------

namespace {

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

CsrGraph CsrGraph::from_topology(const Topology& topology) {
  const std::size_t n = topology.num_nodes();
  CsrGraph graph;
  graph.row_ptr_.reserve(n + 1);
  graph.cols_.reserve(2 * topology.num_edges());
  graph.row_ptr_.push_back(0);
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::size_t j : topology.neighbors(i)) {
      graph.cols_.push_back(static_cast<std::uint32_t>(j));
    }
    graph.row_ptr_.push_back(graph.cols_.size());
  }
  return graph;
}

CsrGraph CsrGraph::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("csr file " + path + ": cannot open");
  }
  return parse(in, path);
}

CsrGraph CsrGraph::parse(std::istream& in, const std::string& name) {
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

  CsrGraph graph;
  graph.row_ptr_.reserve(n + 1);
  graph.row_ptr_.push_back(0);
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
      const auto back = graph.neighbors(j);
      if (!std::binary_search(back.begin(), back.end(),
                              static_cast<std::uint32_t>(i))) {
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

bool CsrGraph::is_connected() const {
  const std::size_t n = num_nodes();
  if (n < 2) return true;
  std::vector<char> seen(n, 0);
  std::vector<std::uint32_t> stack{0};
  seen[0] = 1;
  std::size_t visited = 1;
  while (!stack.empty()) {
    const std::uint32_t i = stack.back();
    stack.pop_back();
    for (const std::uint32_t j : neighbors(i)) {
      if (!seen[j]) {
        seen[j] = 1;
        ++visited;
        stack.push_back(j);
      }
    }
  }
  return visited == n;
}

Topology CsrGraph::materialize() const {
  const std::size_t n = num_nodes();
  Topology topology(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::uint32_t j : neighbors(i)) {
      if (i < j) topology.add_edge(i, j);
    }
  }
  return topology;
}

std::uint64_t CsrGraph::content_hash() const {
  std::uint64_t h = util::hash_combine(0x637372ULL, num_nodes());
  for (const std::uint64_t r : row_ptr_) h = util::hash_combine(h, r);
  for (const std::uint32_t c : cols_) h = util::hash_combine(h, c);
  return h;
}

}  // namespace skiptrain::graph
