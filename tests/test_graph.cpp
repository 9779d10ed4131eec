#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <tuple>

#include "graph/mixing.hpp"
#include "graph/sparse.hpp"
#include "graph/topology.hpp"

namespace skiptrain::graph {
namespace {

TEST(Topology, EdgeListRejectsInvalid) {
  EXPECT_THROW(Topology(4, {{0, 1}, {0, 1}}), std::invalid_argument);  // dup
  EXPECT_THROW(Topology(4, {{0, 1}, {1, 0}}), std::invalid_argument);  // rev
  EXPECT_THROW(Topology(4, {{2, 2}}), std::invalid_argument);  // self loop
  EXPECT_THROW(Topology(4, {{0, 9}}), std::invalid_argument);  // out of range
}

TEST(Topology, NeighborsAreSorted) {
  const Topology topo(5, {{3, 1}, {3, 4}, {3, 0}});
  const auto row = topo.neighbors(3);
  EXPECT_EQ(std::vector<std::size_t>(row.begin(), row.end()),
            (std::vector<std::size_t>{0, 1, 4}));
  EXPECT_EQ(topo.degree(3), 3u);
  EXPECT_EQ(topo.num_edges(), 3u);
  EXPECT_TRUE(topo.has_edge(1, 3));
  EXPECT_FALSE(topo.has_edge(1, 4));
}

TEST(Ring, Properties) {
  const Topology ring = make_ring(10);
  EXPECT_EQ(ring.num_edges(), 10u);
  EXPECT_TRUE(ring.is_regular());
  EXPECT_EQ(ring.degree(0), 2u);
  EXPECT_TRUE(ring.is_connected());
  EXPECT_EQ(ring.diameter(), 5u);
}

TEST(FullyConnected, Properties) {
  const Topology full = make_fully_connected(8);
  EXPECT_EQ(full.num_edges(), 28u);
  EXPECT_TRUE(full.is_regular());
  EXPECT_EQ(full.degree(3), 7u);
  EXPECT_EQ(full.diameter(), 1u);
}

TEST(Topology, IrregularStar) {
  std::vector<Topology::Edge> spokes;
  for (std::size_t i = 1; i < 9; ++i) spokes.emplace_back(0, i);
  const Topology star(9, spokes);
  EXPECT_EQ(star.degree(0), 8u);
  EXPECT_EQ(star.degree(1), 1u);
  EXPECT_FALSE(star.is_regular());
  EXPECT_TRUE(star.is_connected());
  EXPECT_EQ(star.diameter(), 2u);
}

TEST(Topology, DisconnectedGraph) {
  const Topology pairs(4, {{0, 1}, {2, 3}});
  EXPECT_TRUE(pairs.is_regular());
  EXPECT_FALSE(pairs.is_connected());
  EXPECT_EQ(pairs.diameter(), std::numeric_limits<std::size_t>::max());
}

TEST(Circulant, EvenAndOddDegrees) {
  const Topology even = make_circulant(12, 4);
  EXPECT_TRUE(even.is_regular());
  EXPECT_EQ(even.degree(0), 4u);
  EXPECT_TRUE(even.is_connected());

  const Topology odd = make_circulant(12, 5);
  EXPECT_TRUE(odd.is_regular());
  EXPECT_EQ(odd.degree(0), 5u);
  EXPECT_TRUE(odd.is_connected());

  EXPECT_THROW(make_circulant(11, 5), std::invalid_argument);  // odd d, odd n
  EXPECT_THROW(make_circulant(4, 4), std::invalid_argument);   // d >= n
}

class RandomRegularParam
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(RandomRegularParam, RegularConnectedDeterministic) {
  const auto [n, d] = GetParam();
  util::Rng rng_a(101), rng_b(101);
  const Topology a = make_random_regular(n, d, rng_a);
  const Topology b = make_random_regular(n, d, rng_b);

  EXPECT_TRUE(a.is_regular());
  EXPECT_EQ(a.degree(0), d);
  EXPECT_TRUE(a.is_connected());
  EXPECT_EQ(a.num_edges(), n * d / 2);

  // Determinism: identical seed -> identical graph.
  EXPECT_EQ(a.content_hash(), b.content_hash());
}

INSTANTIATE_TEST_SUITE_P(
    PaperSizes, RandomRegularParam,
    ::testing::Values(std::make_tuple(16, 4), std::make_tuple(32, 6),
                      std::make_tuple(64, 6), std::make_tuple(64, 8),
                      std::make_tuple(64, 10), std::make_tuple(256, 6)));

TEST(RandomRegular, RejectsInvalidArguments) {
  util::Rng rng(1);
  EXPECT_THROW(make_random_regular(5, 5, rng), std::invalid_argument);
  EXPECT_THROW(make_random_regular(5, 3, rng), std::invalid_argument);  // odd
}

// --- Metropolis-Hastings mixing matrices ------------------------------------

class MixingParam
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(MixingParam, DoublyStochasticSymmetricSparse) {
  const auto [n, d] = GetParam();
  util::Rng rng(55);
  const Topology topo = make_random_regular(n, d, rng);
  const MixingMatrix mix = MixingMatrix::metropolis_hastings(topo);

  EXPECT_EQ(mix.num_nodes(), n);
  EXPECT_LT(mix.stochasticity_error(), 1e-5);
  EXPECT_LT(mix.symmetry_error(), 1e-7);

  // Zero weight on non-edges; positive on edges; correct MH value.
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::size_t j : topo.neighbors(i)) {
      const float expected =
          1.0f / static_cast<float>(std::max(topo.degree(i), topo.degree(j)) + 1);
      EXPECT_FLOAT_EQ(mix.weight(i, j), expected);
    }
    EXPECT_GE(mix.self_weight(i), 0.0f);
  }
  EXPECT_EQ(mix.weight(0, (n / 2 + 1)), topo.has_edge(0, n / 2 + 1)
                                            ? mix.weight(n / 2 + 1, 0)
                                            : 0.0f);
}

INSTANTIATE_TEST_SUITE_P(
    Degrees, MixingParam,
    ::testing::Values(std::make_tuple(16, 4), std::make_tuple(32, 6),
                      std::make_tuple(32, 8), std::make_tuple(64, 10)));

TEST(Mixing, DenseMatchesSparse) {
  util::Rng rng(3);
  const Topology topo = make_random_regular(12, 4, rng);
  const MixingMatrix mix = MixingMatrix::metropolis_hastings(topo);
  const std::vector<double> dense = mix.dense();
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = 0; j < 12; ++j) {
      EXPECT_NEAR(dense[i * 12 + j], static_cast<double>(mix.weight(i, j)),
                  1e-9);
    }
  }
}

TEST(Mixing, AllReduceIsUniform) {
  const MixingMatrix mix = MixingMatrix::all_reduce(8);
  EXPECT_LT(mix.stochasticity_error(), 1e-6);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_FLOAT_EQ(mix.self_weight(i), 0.125f);
    for (std::size_t j = 0; j < 8; ++j) {
      EXPECT_FLOAT_EQ(mix.weight(i, j), 0.125f);
    }
  }
  // Perfect mixing: λ2 = 0, spectral gap = 1.
  EXPECT_NEAR(mix.second_eigenvalue(), 0.0, 1e-6);
}

TEST(Mixing, SpectralGapOrderedByDegree) {
  // The paper's Figure 3 intuition: denser graphs mix faster, so the
  // optimal Γsync shrinks with degree. Spectral gap is the formal measure.
  util::Rng rng(77);
  const MixingMatrix ring =
      MixingMatrix::metropolis_hastings(make_ring(64));
  const MixingMatrix reg6 = MixingMatrix::metropolis_hastings(
      make_random_regular(64, 6, rng));
  const MixingMatrix reg10 = MixingMatrix::metropolis_hastings(
      make_random_regular(64, 10, rng));
  const MixingMatrix full =
      MixingMatrix::metropolis_hastings(make_fully_connected(64));

  const double gap_ring = ring.spectral_gap();
  const double gap6 = reg6.spectral_gap();
  const double gap10 = reg10.spectral_gap();
  const double gap_full = full.spectral_gap();

  EXPECT_LT(gap_ring, gap6);
  EXPECT_LT(gap6, gap10);
  EXPECT_LT(gap10, gap_full + 1e-9);
  EXPECT_GT(gap_ring, 0.0);
}

TEST(Mixing, SecondEigenvalueOfRingMatchesTheory) {
  // MH on a ring gives W = 1/3 (I + S + S^T); eigenvalues are
  // (1 + 2 cos(2πk/n)) / 3, so λ2 = (1 + 2 cos(2π/n)) / 3.
  const std::size_t n = 32;
  const MixingMatrix mix = MixingMatrix::metropolis_hastings(make_ring(n));
  const double theory =
      (1.0 + 2.0 * std::cos(2.0 * 3.14159265358979 / static_cast<double>(n))) /
      3.0;
  EXPECT_NEAR(mix.second_eigenvalue(400), theory, 1e-3);
}

TEST(Topology, DescribeMentionsKeyFacts) {
  const std::string desc = make_ring(8).describe();
  EXPECT_NE(desc.find("n=8"), std::string::npos);
  EXPECT_NE(desc.find("2-regular"), std::string::npos);
  EXPECT_NE(desc.find("connected=yes"), std::string::npos);
}

// --- Graph pins ------------------------------------------------------------
// Every generator and the CSR parser, pinned through the weights the runs
// gossip with: one hash over each row's degree, neighbor ids, weight bits
// and self-weight bits. The random graphs are seeded the way
// sim::run_experiment seeds them for seed 42. A change to any generator's
// adjacency, its row order or the Metropolis–Hastings float ops fails here.

std::uint64_t mixing_hash(const MixingMatrix& mix) {
  std::uint64_t h = util::hash_combine(0x70696eULL, mix.num_nodes());
  for (std::size_t i = 0; i < mix.num_nodes(); ++i) {
    h = util::hash_combine(h, mix.degree(i));
    for (const MixingMatrix::Entry& entry : mix.neighbor_weights(i)) {
      h = util::hash_combine(h, entry.neighbor);
      h = util::hash_combine(h, std::bit_cast<std::uint32_t>(entry.weight));
    }
    h = util::hash_combine(h,
                           std::bit_cast<std::uint32_t>(mix.self_weight(i)));
  }
  return h;
}

std::uint64_t random_regular_hash(std::size_t n, std::size_t d) {
  util::Rng rng(util::hash_combine(42, 0x70700000ULL));
  return mixing_hash(
      MixingMatrix::metropolis_hastings(make_random_regular(n, d, rng)));
}

TEST(GraphPin, RandomRegularAtRunSeeds) {
  EXPECT_EQ(random_regular_hash(64, 6), 0xeb95cbeb14e8728cULL);
  EXPECT_EQ(random_regular_hash(64, 8), 0xfe582b174ae9959cULL);
  EXPECT_EQ(random_regular_hash(64, 10), 0x9bedb483cf77f491ULL);
  EXPECT_EQ(random_regular_hash(256, 6), 0x1391e60e300b974cULL);
}

TEST(GraphPin, ImplicitKRegularFleet) {
  const ImplicitKRegular fleet(10000, 6,
                               util::hash_combine(42, 0x6b726700ULL));
  EXPECT_EQ(fleet.config_hash(), 0x30bcb43f660ed064ULL);
  EXPECT_EQ(mixing_hash(MixingMatrix::metropolis_hastings(fleet)),
            0x7167fc082949968cULL);
}

TEST(GraphPin, DeterministicGenerators) {
  EXPECT_EQ(mixing_hash(MixingMatrix::metropolis_hastings(make_ring(10))),
            0x0dbcf8ed2a2964d7ULL);
  EXPECT_EQ(mixing_hash(
                MixingMatrix::metropolis_hastings(make_fully_connected(8))),
            0xd7e79b1d76d4a410ULL);
  EXPECT_EQ(
      mixing_hash(MixingMatrix::metropolis_hastings(make_circulant(12, 4))),
      0xeb43db44930f871bULL);
  EXPECT_EQ(
      mixing_hash(MixingMatrix::metropolis_hastings(make_circulant(12, 5))),
      0xbebf8c8cf0b61613ULL);
}

TEST(GraphPin, CsrFixtures) {
  // The 4-ring and the irregular 5-node path of the CSR parser tests.
  std::istringstream ring(
      "skiptrain-csr v1\nnodes 4\n2 1 3\n2 0 2\n2 1 3\n2 0 2\n");
  const auto ring_csr = Topology::parse(ring, "ring");
  EXPECT_EQ(ring_csr.content_hash(), 0x5535250b922af026ULL);
  EXPECT_EQ(mixing_hash(MixingMatrix::metropolis_hastings(ring_csr)),
            0x001eacd6f1ce9fd1ULL);

  std::istringstream path(
      "skiptrain-csr v1\nnodes 5\n1 1\n2 0 2\n2 1 3\n2 2 4\n1 3\n");
  const auto path_csr = Topology::parse(path, "path");
  EXPECT_EQ(path_csr.content_hash(), 0xe763375793d5b5b8ULL);
  EXPECT_EQ(mixing_hash(MixingMatrix::metropolis_hastings(path_csr)),
            0xe9d36606a538da76ULL);
}

}  // namespace
}  // namespace skiptrain::graph
