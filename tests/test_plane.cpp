// ParameterPlane subsystem: arena aliasing, the tiled aggregation
// kernel's three forms (plain, exact self, difference) against the
// pre-refactor row loops on every tile shape, its input checks, and
// golden bit-exactness of the refactored engine against the pre-refactor
// scattered-row reference path (dense and sparse-k, 1 vs N threads).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/compression.hpp"
#include "core/scheduler.hpp"
#include "data/synthetic.hpp"
#include "energy/accountant.hpp"
#include "graph/mixing.hpp"
#include "graph/sparse.hpp"
#include "graph/topology.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/model_zoo.hpp"
#include "plane/plane.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace skiptrain {
namespace {

// ---------------------------------------------------------------------------
// Arena binding
// ---------------------------------------------------------------------------

TEST(ParameterArena, BindPreservesValuesAndAliases) {
  nn::Sequential model = nn::make_mlp(6, {5}, 3);
  util::Rng rng(11);
  nn::initialize(model, rng);
  const std::vector<float> before = model.parameters_flat();

  std::vector<float> arena(model.num_parameters(), -1.0f);
  model.bind_parameter_arena(arena);
  EXPECT_FALSE(model.owns_parameter_arena());
  EXPECT_EQ(model.parameter_arena().data(), arena.data());
  EXPECT_EQ(model.parameters_flat(), before);

  // Writes through the arena are visible through the layers and vice
  // versa — the layers VIEW the arena, they do not copy it.
  arena[0] = 123.5f;
  EXPECT_EQ(model.layer(0).parameters()[0], 123.5f);
  model.layer(0).parameters()[1] = -42.0f;
  EXPECT_EQ(arena[1], -42.0f);

  // set_parameters lands in the arena too (zero-copy storage, same API).
  std::vector<float> fresh(model.num_parameters(), 0.25f);
  model.set_parameters(fresh);
  EXPECT_EQ(arena[0], 0.25f);

  EXPECT_THROW(model.bind_parameter_arena(std::span<float>(arena).first(1)),
               std::invalid_argument);
}

TEST(ParameterArena, CloneOfBoundModelOwnsItsStorage) {
  nn::Sequential model = nn::make_mlp(6, {5}, 3);
  util::Rng rng(13);
  nn::initialize(model, rng);
  std::vector<float> arena(model.num_parameters());
  model.bind_parameter_arena(arena);

  nn::Sequential copy = model.clone();
  EXPECT_TRUE(copy.owns_parameter_arena());
  EXPECT_EQ(copy.parameters_flat(), model.parameters_flat());
  copy.layer(0).parameters()[0] += 1.0f;
  EXPECT_NE(copy.parameters_flat()[0], model.parameters_flat()[0]);
}

TEST(ParameterArena, AddAfterExternalBindThrows) {
  nn::Sequential model = nn::make_mlp(4, {3}, 2);
  std::vector<float> arena(model.num_parameters());
  model.bind_parameter_arena(arena);
  EXPECT_THROW(model.emplace<nn::Linear>(2, 2), std::logic_error);
}

// ---------------------------------------------------------------------------
// Aggregation kernel vs the pre-refactor row loops
// ---------------------------------------------------------------------------

/// The seed engine's aggregation, verbatim: per node, scale self then axpy
/// neighbors over the full row. The tiled kernel must be bit-identical.
std::vector<std::vector<float>> reference_dense_mix(
    const graph::MixingMatrix& mixing,
    const std::vector<std::vector<float>>& half) {
  const std::size_t n = half.size();
  std::vector<std::vector<float>> current(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& out = current[i];
    out.resize(half[i].size());
    const auto& mine = half[i];
    const float self_w = mixing.self_weight(i);
    for (std::size_t k = 0; k < out.size(); ++k) out[k] = self_w * mine[k];
    for (const auto& entry : mixing.neighbor_weights(i)) {
      const auto& theirs = half[entry.neighbor];
      const float w = entry.weight;
      for (std::size_t k = 0; k < out.size(); ++k) out[k] += w * theirs[k];
    }
  }
  return current;
}

/// The engine's pre-kernel dense difference form, verbatim but for the
/// delivered() call, which now reads the edge's flag: out starts at the
/// node's own row and each delivered neighbor adds w·(theirs − mine).
std::vector<std::vector<float>> reference_difference_mix(
    const graph::MixingMatrix& mixing,
    const std::vector<std::vector<float>>& half,
    const std::vector<std::vector<float>>& received,
    const std::vector<std::uint8_t>& delivered) {
  std::vector<std::vector<float>> current(half.size());
  for (std::size_t i = 0; i < half.size(); ++i) {
    const auto& mine = half[i];
    auto& out = current[i];
    out = mine;
    std::size_t e = mixing.entry_offset(i);
    for (const auto& entry : mixing.neighbor_weights(i)) {
      if (!delivered[e++]) continue;
      const auto& theirs = received[entry.neighbor];
      const float w = entry.weight;
      for (std::size_t k = 0; k < out.size(); ++k) {
        out[k] += w * (theirs[k] - mine[k]);
      }
    }
  }
  return current;
}

/// The engine's pre-kernel lossy path, verbatim: the plain reduction over
/// the received images, then a second sweep restoring the exact self term.
std::vector<std::vector<float>> reference_exact_self_mix(
    const graph::MixingMatrix& mixing,
    const std::vector<std::vector<float>>& half,
    const std::vector<std::vector<float>>& received) {
  std::vector<std::vector<float>> current =
      reference_dense_mix(mixing, received);
  for (std::size_t i = 0; i < half.size(); ++i) {
    const float self_w = mixing.self_weight(i);
    const auto& mine = half[i];
    const auto& approx = received[i];
    auto& out = current[i];
    for (std::size_t k = 0; k < out.size(); ++k) {
      out[k] += self_w * (mine[k] - approx[k]);
    }
  }
  return current;
}

/// A random delivered mask with two down receivers (nothing delivered),
/// one of them node 1 next to the CSR matrix's isolated node 0, and one
/// row where every edge delivered.
std::vector<std::uint8_t> random_delivery(const graph::MixingMatrix& mixing,
                                          util::Rng& rng) {
  std::vector<std::uint8_t> delivered(mixing.num_entries());
  for (auto& flag : delivered) flag = rng.bernoulli(0.5) ? 1 : 0;
  const auto fill_row = [&](std::size_t node, std::uint8_t value) {
    const auto begin = delivered.begin() +
                       static_cast<std::ptrdiff_t>(mixing.entry_offset(node));
    std::fill(begin,
              begin + static_cast<std::ptrdiff_t>(mixing.degree(node)), value);
  };
  const std::size_t n = mixing.num_nodes();
  fill_row(1, 0);
  fill_row(n / 2, 0);
  fill_row(n - 2, 1);
  return delivered;
}

/// Overwrites random cells of a plane (at least one per value) with IEEE
/// edge values: signed zeros, a NaN, both infinities and subnormals. The
/// NaN is the one the FPU generates for inf − inf (x86: the negative
/// default NaN), so every NaN of a run has one bit pattern. IEEE 754 leaves
/// open which payload an add of two NaNs keeps, and the compiler may swap
/// a commutative add's operands, so two payloads would make the bits of a
/// sum depend on codegen rather than on the op sequence.
void sprinkle_special_values(std::vector<std::vector<float>>& rows,
                             util::Rng& rng) {
  using limits = std::numeric_limits<float>;
  volatile float inf = limits::infinity();
  const float generated_nan = inf - inf;
  const float specials[] = {0.0f,
                            -0.0f,
                            generated_nan,
                            limits::infinity(),
                            -limits::infinity(),
                            limits::denorm_min(),
                            -limits::denorm_min(),
                            limits::min() / 3.0f};
  const std::size_t n = rows.size();
  const std::size_t dim = rows.front().size();
  const std::size_t cells = std::max<std::size_t>(16, n * dim / 64);
  for (std::size_t c = 0; c < cells; ++c) {
    const auto row = static_cast<std::size_t>(rng.uniform_int(n));
    const auto col = static_cast<std::size_t>(rng.uniform_int(dim));
    rows[row][col] = specials[c % std::size(specials)];
  }
}

/// Row-major copy of a vector-of-rows plane.
std::vector<float> flatten(const std::vector<std::vector<float>>& rows) {
  std::vector<float> flat;
  for (const auto& row : rows) flat.insert(flat.end(), row.begin(), row.end());
  return flat;
}

/// The four kinds of matrix the engine runs: a random-regular graph, an
/// implicit k-regular graph, an irregular CSR graph (rows of degree 0 and
/// 1 take the kernel's short branches) and the all-reduce average.
std::vector<std::pair<std::string, graph::MixingMatrix>> kernel_matrices(
    std::size_t n) {
  util::Rng rng(3);
  std::vector<std::pair<std::string, graph::MixingMatrix>> matrices;
  matrices.emplace_back("random-regular",
                        graph::MixingMatrix::metropolis_hastings(
                            graph::make_random_regular(n, 6, rng)));
  matrices.emplace_back("kregular",
                        graph::MixingMatrix::metropolis_hastings(
                            graph::ImplicitKRegular(n, 6, 5)));
  // Node 0 isolated, a path over the rest (degree-1 ends) and chords
  // from every third node to its mirror node for uneven higher degrees.
  std::set<graph::Topology::Edge> edges;
  for (std::size_t i = 1; i + 1 < n; ++i) edges.emplace(i, i + 1);
  for (std::size_t i = 2; i + 2 < n; i += 3) {
    if (n - i != i) edges.emplace(std::min(i, n - i), std::max(i, n - i));
  }
  matrices.emplace_back(
      "csr", graph::MixingMatrix::metropolis_hastings(graph::Topology(
                 n, std::vector<graph::Topology::Edge>(edges.begin(),
                                                       edges.end()))));
  matrices.emplace_back("all-reduce", graph::MixingMatrix::all_reduce(n));
  return matrices;
}

TEST(GossipKernel, BitIdenticalToRowLoopOnEveryTileShape) {
  struct Shape {
    const char* name;
    std::size_t n;
    std::size_t dim;
    bool every_matrix;  ///< else the random-regular matrix only
  };
  const Shape shapes[] = {
      // 3 column blocks of 5461 floats, the last one partial.
      {"column blocks", 24, 12000, true},
      // n > 256: whole-row tiles over contiguous row ranges.
      {"row ranges", 300, 448, true},
      // The whole plane fits one tile: a single task.
      {"one tile", 10, 100, true},
      // One-tile rows around the kernel's 8- and 32-float column chunks.
      {"dim 1", 10, 1, true},
      {"dim 7", 10, 7, true},
      {"dim 8", 10, 8, true},
      {"dim 31", 10, 31, true},
      {"dim 32", 10, 32, true},
      {"dim 33", 10, 33, true},
      // chaos_256: 512-float column blocks and a 362-float tail.
      {"chaos_256", 256, 2410, false},
  };
  for (const Shape& shape : shapes) {
    std::vector<std::vector<float>> half(shape.n,
                                         std::vector<float>(shape.dim));
    util::Rng rng(17);
    for (auto& row : half) rng.fill_normal(row, 0.0f, 1.0f);
    // A distinct neighbor source: the rows as a lossy codec might decode.
    std::vector<std::vector<float>> received = half;
    for (auto& row : received) {
      for (float& value : row) value += 0.01f * rng.uniform_float();
    }
    sprinkle_special_values(half, rng);
    sprinkle_special_values(received, rng);
    const std::vector<float> half_flat = flatten(half);
    const std::vector<float> received_flat = flatten(received);
    auto matrices = kernel_matrices(shape.n);
    if (!shape.every_matrix) matrices.resize(1);
    for (const auto& [label, mixing] : matrices) {
      const std::vector<std::uint8_t> delivered =
          random_delivery(mixing, rng);
      struct Form {
        const char* name;
        std::span<const float> received;
        std::optional<std::span<const std::uint8_t>> delivered;
        std::vector<float> reference;
      };
      const Form forms[] = {
          {"plain", half_flat, std::nullopt,
           flatten(reference_dense_mix(mixing, half))},
          {"exact self", received_flat, std::nullopt,
           flatten(reference_exact_self_mix(mixing, half, received))},
          {"difference", received_flat, delivered,
           flatten(reference_difference_mix(mixing, half, received,
                                            delivered))},
      };
      for (const Form& form : forms) {
        SCOPED_TRACE(std::string(shape.name) + " / " + label + " / " +
                     form.name);
        for (const bool serial : {true, false}) {
          std::optional<util::ThreadPool::ScopedForceSerial> serial_scope;
          if (serial) serial_scope.emplace();
          std::vector<float> out(half_flat.size(), -7.0f);
          graph::apply_mixing(mixing, half_flat, form.received, out,
                              shape.dim, form.delivered);
          // Bit patterns, so -0 vs +0 and NaN payloads count too.
          for (std::size_t i = 0; i < out.size(); ++i) {
            ASSERT_EQ(std::bit_cast<std::uint32_t>(out[i]),
                      std::bit_cast<std::uint32_t>(form.reference[i]))
                << (serial ? "serial" : "pool") << " node " << i / shape.dim
                << " coord " << i % shape.dim << ": " << out[i] << " vs "
                << form.reference[i];
          }
        }
      }
    }
  }
}

TEST(GossipKernel, RejectsMisSizedSourcesAndMasks) {
  const graph::MixingMatrix mixing =
      graph::MixingMatrix::metropolis_hastings(graph::make_ring(6));
  const std::size_t dim = 4;
  const std::vector<float> half(6 * dim, 1.0f);
  std::vector<float> out(6 * dim);
  const std::vector<float> short_received(6 * dim - 1, 1.0f);
  EXPECT_THROW(graph::apply_mixing(mixing, half, short_received, out, dim),
               std::invalid_argument);
  const std::vector<std::uint8_t> short_mask(mixing.num_entries() - 1, 1);
  EXPECT_THROW(graph::apply_mixing(mixing, half, half, out, dim,
                                   std::span<const std::uint8_t>(short_mask)),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Engine golden paths
// ---------------------------------------------------------------------------

struct EngineFixture {
  data::FederatedData data;
  nn::Sequential prototype;
  graph::Topology topology;
  graph::MixingMatrix mixing;
  energy::Fleet fleet;

  explicit EngineFixture(std::size_t nodes, std::uint64_t seed = 42)
      : fleet(energy::Fleet::even(nodes, energy::Workload::kCifar10)) {
    data::CifarSynConfig config;
    config.nodes = nodes;
    config.samples_per_node = 24;
    config.test_pool = 60;
    config.seed = seed;
    data = data::make_cifar_synthetic(config);
    prototype = nn::make_mlp(config.feature_dim, {12}, 10);
    util::Rng rng(seed);
    nn::initialize(prototype, rng);
    util::Rng topo_rng(seed + 1);
    topology = graph::make_random_regular(nodes, 4, topo_rng);
    mixing = graph::MixingMatrix::metropolis_hastings(topology);
  }

  sim::RoundEngine make_engine(const core::RoundScheduler& scheduler,
                               std::size_t sparse_k = 0) const {
    std::vector<std::size_t> degrees(fleet.num_nodes());
    for (std::size_t i = 0; i < degrees.size(); ++i) {
      degrees[i] = topology.degree(i);
    }
    energy::EnergyAccountant accountant(fleet, energy::CommModel{}, 89834,
                                        std::move(degrees));
    sim::EngineConfig config;
    config.local_steps = 2;
    config.batch_size = 8;
    config.sparse_exchange_k = sparse_k;
    return sim::RoundEngine(prototype, data, mixing, scheduler,
                            std::move(accountant), config);
  }

  /// Randomizes each engine model to distinct parameters (same for every
  /// engine built from this fixture and `seed`).
  std::vector<std::vector<float>> scatter_models(sim::RoundEngine& engine,
                                                 std::uint64_t seed) const {
    util::Rng rng(seed);
    std::vector<std::vector<float>> snapshot(engine.num_nodes());
    for (std::size_t i = 0; i < engine.num_nodes(); ++i) {
      snapshot[i].resize(prototype.num_parameters());
      rng.fill_normal(snapshot[i], 0.0f, 1.0f);
      engine.model(i).set_parameters(snapshot[i]);
    }
    return snapshot;
  }
};

/// Reference masked aggregation over dense rows (the pre-staging sparse
/// path): out[c] += weight * (theirs[c] - base[c]) for every c in mask.
void accumulate_masked_difference(std::span<const std::uint32_t> mask,
                                  std::span<const float> theirs,
                                  std::span<const float> base,
                                  std::span<float> out, float weight) {
  for (const std::uint32_t c : mask) {
    out[c] += weight * (theirs[c] - base[c]);
  }
}

/// Sync-only scheduler isolates the aggregation step.
class SyncOnlyScheduler final : public core::RoundScheduler {
 public:
  std::string name() const override { return "sync-only"; }
  core::RoundKind round_kind(std::size_t) const override {
    return core::RoundKind::kSynchronization;
  }
  bool should_train(std::size_t, std::size_t, std::size_t) const override {
    return false;
  }
};

TEST(PlaneEngine, DenseRoundBitIdenticalToReferenceRowLoop) {
  EngineFixture fixture(12);
  const SyncOnlyScheduler scheduler;
  sim::RoundEngine engine = fixture.make_engine(scheduler);
  const auto snapshot = fixture.scatter_models(engine, 99);

  engine.run_round();
  const auto reference = reference_dense_mix(fixture.mixing, snapshot);
  const auto params = engine.node_parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    const auto row = params[i];
    for (std::size_t k = 0; k < row.size(); ++k) {
      ASSERT_EQ(row[k], reference[i][k]) << "node " << i << " coord " << k;
    }
  }
}

TEST(PlaneEngine, SparseRoundBitIdenticalToReferenceMaskedPath) {
  EngineFixture fixture(12);
  const SyncOnlyScheduler scheduler;
  const std::size_t dim = fixture.prototype.num_parameters();
  const std::size_t k = dim / 7;
  sim::RoundEngine engine = fixture.make_engine(scheduler, k);
  const auto snapshot = fixture.scatter_models(engine, 101);

  engine.run_round();

  // Pre-refactor sparse path: dense copy of own row, then masked
  // accumulate per neighbor (round t = 1's shared mask).
  const auto mask = core::shared_round_mask(sim::EngineConfig{}.seed, 1, dim, k);
  const auto params = engine.node_parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    std::vector<float> expected = snapshot[i];
    for (const auto& entry : fixture.mixing.neighbor_weights(i)) {
      accumulate_masked_difference(mask, snapshot[entry.neighbor],
                                   snapshot[i], expected, entry.weight);
    }
    const auto row = params[i];
    for (std::size_t c = 0; c < row.size(); ++c) {
      ASSERT_EQ(row[c], expected[c]) << "node " << i << " coord " << c;
    }
  }
}

TEST(PlaneEngine, TrainingRoundsBitIdenticalAcrossThreadCounts) {
  EngineFixture fixture(8);
  const core::SkipTrainScheduler scheduler(2, 2);

  for (const std::size_t sparse_k : {std::size_t{0}, std::size_t{25}}) {
    sim::RoundEngine parallel_engine =
        fixture.make_engine(scheduler, sparse_k);
    parallel_engine.run_rounds(5);

    sim::RoundEngine serial_engine = fixture.make_engine(scheduler, sparse_k);
    {
      util::ThreadPool::ScopedForceSerial serial;
      serial_engine.run_rounds(5);
    }

    for (std::size_t i = 0; i < parallel_engine.num_nodes(); ++i) {
      const auto a = parallel_engine.node_parameters()[i];
      const auto b = serial_engine.node_parameters()[i];
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "sparse_k=" << sparse_k << " node " << i;
    }
  }
}

TEST(PlaneEngine, ModelsAliasPlaneRows) {
  EngineFixture fixture(6);
  const SyncOnlyScheduler scheduler;
  sim::RoundEngine engine = fixture.make_engine(scheduler);

  for (std::size_t i = 0; i < engine.num_nodes(); ++i) {
    EXPECT_FALSE(engine.model(i).owns_parameter_arena());
    EXPECT_EQ(engine.model(i).parameter_arena().data(),
              engine.node_parameters().row(i).data());
  }
  engine.run_round();  // dense round flips buffers; aliasing must follow
  for (std::size_t i = 0; i < engine.num_nodes(); ++i) {
    EXPECT_EQ(engine.model(i).parameter_arena().data(),
              engine.node_parameters().row(i).data());
  }
}

// ---------------------------------------------------------------------------
// Staging helpers
// ---------------------------------------------------------------------------

TEST(Staging, GatherMaskedRowsCompactsCoordinates) {
  plane::RowArena source(3, 10);
  for (std::size_t i = 0; i < 3; ++i) {
    auto row = source.row(i);
    for (std::size_t c = 0; c < 10; ++c) {
      row[c] = static_cast<float>(10 * i + c);
    }
  }
  const std::vector<std::uint32_t> mask{1, 4, 9};
  plane::RowArena staged(3, mask.size());
  plane::gather_masked_rows(source.view(), mask, staged.view());
  for (std::size_t i = 0; i < 3; ++i) {
    const auto row = staged.row(i);
    EXPECT_EQ(row[0], static_cast<float>(10 * i + 1));
    EXPECT_EQ(row[1], static_cast<float>(10 * i + 4));
    EXPECT_EQ(row[2], static_cast<float>(10 * i + 9));
  }
  plane::RowArena wrong(3, 2);
  EXPECT_THROW(plane::gather_masked_rows(source.view(), mask, wrong.view()),
               std::invalid_argument);
}

TEST(Staging, StagedDifferenceMatchesMaskedDifferenceInPlace) {
  const std::size_t dim = 32;
  std::vector<float> mine(dim), theirs(dim);
  util::Rng rng(23);
  rng.fill_normal(mine, 0.0f, 1.0f);
  rng.fill_normal(theirs, 0.0f, 1.0f);
  const auto mask = core::shared_round_mask(5, 3, dim, 9);

  std::vector<float> expected = mine;
  accumulate_masked_difference(mask, theirs, mine, expected, 0.3f);

  // Staged form updates `mine` in place, reading only staged snapshots.
  std::vector<float> mine_staged(mask.size()), theirs_staged(mask.size());
  core::gather_masked(mask, mine, mine_staged);
  core::gather_masked(mask, theirs, theirs_staged);
  core::accumulate_staged_difference(mask, theirs_staged, mine_staged, mine,
                                     0.3f);
  EXPECT_EQ(mine, expected);
}

}  // namespace
}  // namespace skiptrain
