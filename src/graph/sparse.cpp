#include "graph/sparse.hpp"

#include <stdexcept>
#include <vector>

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

namespace {

/// Validates (n, k) and draws the circulant's ring offsets from the seed.
std::vector<std::size_t> kregular_offsets(std::size_t n, std::size_t k,
                                          std::uint64_t seed) {
  if (n < 3) throw std::invalid_argument("ImplicitKRegular: need n >= 3");
  if (k < 2 || k >= n) {
    throw std::invalid_argument("ImplicitKRegular: need 2 <= k < n");
  }
  if (k % 2 == 1 && n % 2 == 1) {
    throw std::invalid_argument("ImplicitKRegular: odd degree requires even n");
  }
  const std::size_t m = k / 2;
  const std::size_t max_off = n % 2 == 0 ? n / 2 - 1 : (n - 1) / 2;
  if (m > max_off) {
    throw std::invalid_argument("ImplicitKRegular: degree too large for n");
  }
  // Offset 1 is always present, so the graph contains the Hamiltonian ring
  // 0-1-...-n-1-0 and is connected for every seed; the remaining offsets
  // are a seed-derived distinct sample of [2, max_off].
  std::vector<std::size_t> offsets{1};
  if (m > 1) {
    util::Rng rng(util::hash_combine(seed, 0x6b726567756c6172ULL));
    for (const std::size_t idx :
         rng.sample_without_replacement(max_off - 1, m - 1)) {
      offsets.push_back(idx + 2);
    }
  }
  return offsets;
}

}  // namespace

ImplicitKRegular::ImplicitKRegular(std::size_t n, std::size_t k,
                                   std::uint64_t seed)
    : Topology(n,
               circulant_edges(n, kregular_offsets(n, k, seed), k % 2 == 1)) {
  config_hash_ = util::hash_combine(0x6b726567756c6172ULL, n);
  config_hash_ = util::hash_combine(config_hash_, k);
  config_hash_ = util::hash_combine(config_hash_, seed);
}

}  // namespace skiptrain::graph
