// ParameterPlane subsystem: layout round-trips, arena aliasing, and golden
// bit-exactness of the refactored engine against the pre-refactor
// scattered-row reference path (dense and sparse-k, 1 vs N threads).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "core/compression.hpp"
#include "core/scheduler.hpp"
#include "data/synthetic.hpp"
#include "energy/accountant.hpp"
#include "graph/mixing.hpp"
#include "graph/topology.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/model_zoo.hpp"
#include "plane/layout.hpp"
#include "plane/plane.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace skiptrain {
namespace {

// ---------------------------------------------------------------------------
// ParameterLayout
// ---------------------------------------------------------------------------

TEST(ParameterLayout, MatchesLayerParameterCounts) {
  const nn::Sequential model = nn::make_mlp(12, {8, 6}, 4);
  const plane::ParameterLayout layout = plane::ParameterLayout::of(model);

  EXPECT_EQ(layout.dim(), model.num_parameters());
  std::size_t expected_offset = 0;
  std::size_t covered = 0;
  for (const auto& block : layout.blocks()) {
    EXPECT_EQ(block.offset, covered);
    EXPECT_EQ(block.extent, model.layer(block.layer).parameter_count());
    // Parameter-free layers between blocks contribute zero extent.
    for (std::size_t l = expected_offset; l < block.layer; ++l) {
      EXPECT_EQ(model.layer(l).parameter_count(), 0u);
    }
    expected_offset = block.layer + 1;
    covered += block.extent;
  }
  EXPECT_EQ(covered, layout.dim());
  EXPECT_THROW(layout.block_of_layer(model.num_layers()), std::out_of_range);
}

TEST(ParameterLayout, SliceAddressesLayerBlock) {
  nn::Sequential model = nn::make_mlp(4, {3}, 2);
  util::Rng rng(7);
  nn::initialize(model, rng);
  const plane::ParameterLayout layout = plane::ParameterLayout::of(model);

  const auto arena = model.parameter_arena();
  for (const auto& block : layout.blocks()) {
    const auto slice = plane::ParameterLayout::slice(
        std::span<const float>(arena), block);
    const auto direct = model.layer(block.layer).parameters();
    ASSERT_EQ(slice.size(), direct.size());
    EXPECT_TRUE(std::equal(slice.begin(), slice.end(), direct.begin()));
    // The slice is a true alias, not a copy.
    EXPECT_EQ(slice.data(), direct.data());
  }
}

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
// Blocked mixing kernel vs the pre-refactor row loop
// ---------------------------------------------------------------------------

/// The seed engine's aggregation, verbatim: per node, scale self then axpy
/// neighbors over the full row. The blocked kernel must be bit-identical.
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

TEST(BlockedMixing, BitIdenticalToRowLoopAcrossBlockSizes) {
  const std::size_t n = 24;
  const std::size_t dim = 1000;  // not a multiple of any tested block
  util::Rng topo_rng(3);
  const auto topology = graph::make_random_regular(n, 6, topo_rng);
  const auto mixing = graph::MixingMatrix::metropolis_hastings(topology);

  std::vector<std::vector<float>> half(n, std::vector<float>(dim));
  util::Rng rng(17);
  for (auto& row : half) rng.fill_normal(row, 0.0f, 1.0f);
  const auto reference = reference_dense_mix(mixing, half);

  std::vector<float> half_flat(n * dim);
  for (std::size_t i = 0; i < n; ++i) {
    std::copy(half[i].begin(), half[i].end(), half_flat.begin() + i * dim);
  }
  for (const std::size_t block : {std::size_t{0}, std::size_t{1},
                                  std::size_t{64}, std::size_t{333},
                                  std::size_t{4096}}) {
    std::vector<float> current_flat(n * dim, -7.0f);
    graph::apply_mixing_blocked(mixing, half_flat, current_flat, dim, block);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 0; k < dim; ++k) {
        ASSERT_EQ(current_flat[i * dim + k], reference[i][k])
            << "block=" << block << " node=" << i << " coord=" << k;
      }
    }
  }
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
