// Round-engine semantics: aggregation invariants, budget enforcement,
// determinism, and energy bookkeeping.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "data/synthetic.hpp"
#include "energy/accountant.hpp"
#include "graph/mixing.hpp"
#include "graph/topology.hpp"
#include "metrics/consensus.hpp"
#include "metrics/evaluator.hpp"
#include "nn/init.hpp"
#include "nn/model_zoo.hpp"
#include "sim/engine.hpp"

// --- live heap bytes, for the replica-storage test ------------------------
// Replacing the global operators is binary-wide, so the hook stays cheap: a
// 16-byte header keeps each block's requested size. The count is per
// thread, so the test's single-threaded step does not see pool workers
// freeing their own task state at the same time.
namespace {
thread_local std::int64_t t_live_bytes = 0;
constexpr std::size_t kHeader = 16;  // keeps the default new alignment

void* counted_alloc(std::size_t size) {
  auto* block = static_cast<unsigned char*>(std::malloc(size + kHeader));
  if (block == nullptr) throw std::bad_alloc();
  std::memcpy(block, &size, sizeof(size));
  t_live_bytes += static_cast<std::int64_t>(size);
  return block + kHeader;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  unsigned char* block = static_cast<unsigned char*>(p) - kHeader;
  std::size_t size = 0;
  std::memcpy(&size, block, sizeof(size));
  t_live_bytes -= static_cast<std::int64_t>(size);
  std::free(block);
}
}  // namespace

// Every unaligned form, nothrow included: a sanitizer runtime supplies its
// own for any form left out, and those would not know about the header.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace skiptrain::sim {
namespace {

/// Sync-only scheduler: isolates the aggregation step for invariant tests.
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

struct Fixture {
  data::FederatedData data;
  nn::Sequential prototype;
  graph::Topology topology;
  graph::MixingMatrix mixing;
  energy::Fleet fleet;

  /// `lenet` swaps the MLP for GN-LeNet (nn::make_cifar_cnn) on
  /// image-shaped 3x32x32 synthetic CIFAR-10.
  explicit Fixture(std::size_t nodes, std::size_t degree,
                   std::uint64_t seed = 42, bool lenet = false)
      : fleet(energy::Fleet::even(nodes, energy::Workload::kCifar10)) {
    data::CifarSynConfig config;
    config.nodes = nodes;
    config.samples_per_node = lenet ? 16 : 30;
    config.test_pool = lenet ? 64 : 200;
    config.seed = seed;
    if (lenet) config.feature_dim = 3 * 32 * 32;
    data = data::make_cifar_synthetic(config);

    if (lenet) {
      for (data::Dataset* split : {&data.train, &data.validation, &data.test}) {
        split->features.reshape({split->size(), 3, 32, 32});
      }
      prototype = nn::make_cifar_cnn();
    } else {
      prototype = nn::make_mlp(config.feature_dim, {16}, 10);
    }
    util::Rng rng(seed);
    nn::initialize(prototype, rng);

    util::Rng topo_rng(seed + 1);
    topology = graph::make_random_regular(nodes, degree, topo_rng);
    mixing = graph::MixingMatrix::metropolis_hastings(topology);
  }

  energy::EnergyAccountant make_accountant() const {
    std::vector<std::size_t> degrees(fleet.num_nodes());
    for (std::size_t i = 0; i < degrees.size(); ++i) {
      degrees[i] = topology.degree(i);
    }
    return energy::EnergyAccountant(fleet, energy::CommModel{}, 89834,
                                    std::move(degrees));
  }

  RoundEngine make_engine(const core::RoundScheduler& scheduler,
                          EngineConfig config = {}) const {
    return RoundEngine(prototype, data, mixing, scheduler, make_accountant(),
                       config);
  }
};

/// Mean parameter vector across nodes (plane rows or owned vectors).
std::vector<double> global_mean(plane::ConstMatrixView params) {
  std::vector<double> mean(params.dim, 0.0);
  for (std::size_t r = 0; r < params.rows; ++r) {
    const auto p = params.row(r);
    for (std::size_t i = 0; i < p.size(); ++i) mean[i] += p[i];
  }
  for (auto& v : mean) v /= static_cast<double>(params.rows);
  return mean;
}

std::vector<double> global_mean(const std::vector<std::vector<float>>& params) {
  std::vector<double> mean(params.front().size(), 0.0);
  for (const auto& p : params) {
    for (std::size_t i = 0; i < p.size(); ++i) mean[i] += p[i];
  }
  for (auto& v : mean) v /= static_cast<double>(params.size());
  return mean;
}

TEST(Engine, SyncRoundPreservesGlobalAverage) {
  Fixture fixture(12, 4);
  const SyncOnlyScheduler scheduler;
  RoundEngine engine = fixture.make_engine(scheduler);

  // Give every node distinct parameters so averaging is non-trivial.
  util::Rng rng(9);
  for (std::size_t i = 0; i < engine.num_nodes(); ++i) {
    std::vector<float> params(fixture.prototype.num_parameters());
    rng.fill_normal(params, 0.0f, 1.0f);
    engine.model(i).set_parameters(params);
  }
  // Refresh snapshots by running one sync round and compare means.
  std::vector<std::vector<float>> before(engine.num_nodes());
  for (std::size_t i = 0; i < engine.num_nodes(); ++i) {
    before[i] = engine.model(i).parameters_flat();
  }
  const auto mean_before = global_mean(before);

  engine.run_round();
  const auto mean_after = global_mean(engine.node_parameters());

  ASSERT_EQ(mean_before.size(), mean_after.size());
  for (std::size_t i = 0; i < mean_before.size(); ++i) {
    EXPECT_NEAR(mean_before[i], mean_after[i], 1e-4);
  }
}

TEST(Engine, SyncRoundsShrinkConsensusDistance) {
  Fixture fixture(16, 4);
  const SyncOnlyScheduler scheduler;
  RoundEngine engine = fixture.make_engine(scheduler);

  util::Rng rng(10);
  for (std::size_t i = 0; i < engine.num_nodes(); ++i) {
    std::vector<float> params(fixture.prototype.num_parameters());
    rng.fill_normal(params, 0.0f, 1.0f);
    engine.model(i).set_parameters(params);
  }
  engine.run_round();
  const double d1 = metrics::consensus_distance(engine.node_parameters());
  engine.run_rounds(5);
  const double d6 = metrics::consensus_distance(engine.node_parameters());
  EXPECT_LT(d6, d1 * 0.5);  // gossip contracts disagreement geometrically
}

TEST(Engine, IdenticalModelsAreFixedPointOfSync) {
  Fixture fixture(8, 4);
  const SyncOnlyScheduler scheduler;
  RoundEngine engine = fixture.make_engine(scheduler);
  const std::vector<float> initial = fixture.prototype.parameters_flat();
  engine.run_rounds(3);
  for (std::size_t i = 0; i < engine.num_nodes(); ++i) {
    const auto& params = engine.node_parameters()[i];
    for (std::size_t k = 0; k < params.size(); ++k) {
      EXPECT_NEAR(params[k], initial[k], 1e-5f);
    }
  }
}

TEST(Engine, AllReduceMatrixEqualizesModels) {
  Fixture fixture(8, 4);
  const SyncOnlyScheduler scheduler;
  const graph::MixingMatrix all_reduce = graph::MixingMatrix::all_reduce(8);
  RoundEngine engine(fixture.prototype, fixture.data, all_reduce, scheduler,
                     fixture.make_accountant(), EngineConfig{});
  util::Rng rng(11);
  std::vector<std::vector<float>> initial(engine.num_nodes());
  for (std::size_t i = 0; i < engine.num_nodes(); ++i) {
    initial[i].resize(fixture.prototype.num_parameters());
    rng.fill_normal(initial[i], 0.0f, 1.0f);
    engine.model(i).set_parameters(initial[i]);
  }
  const auto mean = global_mean(initial);

  engine.run_round();
  for (std::size_t i = 0; i < engine.num_nodes(); ++i) {
    const auto& params = engine.node_parameters()[i];
    for (std::size_t k = 0; k < params.size(); ++k) {
      EXPECT_NEAR(params[k], mean[k], 1e-4);
    }
  }
}

TEST(Engine, DeterministicAcrossRuns) {
  const core::SkipTrainScheduler scheduler(2, 2);
  Fixture fixture(8, 4);

  RoundEngine engine_a = fixture.make_engine(scheduler);
  RoundEngine engine_b = fixture.make_engine(scheduler);
  engine_a.run_rounds(6);
  engine_b.run_rounds(6);

  for (std::size_t i = 0; i < engine_a.num_nodes(); ++i) {
    const auto a = engine_a.node_parameters()[i];
    const auto b = engine_b.node_parameters()[i];
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "node " << i;
  }
}

TEST(Engine, RoundOutcomeReportsKindAndCount) {
  const core::SkipTrainScheduler scheduler(1, 1);
  Fixture fixture(8, 4);
  RoundEngine engine = fixture.make_engine(scheduler);

  // Rounds number from 1 and every Γ-block opens with training: t=1
  // trains ((1-1) mod 2 = 0 < 1), t=2 synchronizes.
  const auto first = engine.run_round();
  EXPECT_EQ(first.kind, core::RoundKind::kTraining);
  EXPECT_EQ(first.nodes_trained, 8u);
  EXPECT_GT(first.mean_local_loss, 0.0);

  const auto second = engine.run_round();
  EXPECT_EQ(second.kind, core::RoundKind::kSynchronization);
  EXPECT_EQ(second.nodes_trained, 0u);
  EXPECT_EQ(engine.rounds_executed(), 2u);
}

TEST(Engine, GreedyNeverExceedsBudget) {
  // Tiny budgets: Greedy must stop training exactly at τ_i.
  Fixture fixture(8, 4);
  const core::GreedyScheduler scheduler;

  std::vector<std::size_t> degrees(8, 4);
  // Budget of 3 rounds for everyone via a custom fleet-like accountant is
  // not directly expressible; instead run long enough that the canonical
  // budgets (272..681) are NOT hit, then verify counts equal rounds.
  RoundEngine engine = fixture.make_engine(scheduler);
  engine.run_rounds(5);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(engine.accountant().training_rounds_executed(i), 5u);
  }
}

TEST(Engine, ConstrainedRespectsBudgetCap) {
  // Budgets of 2 rounds: regardless of probabilities, no node may train
  // more than twice.
  Fixture fixture(8, 4);
  const core::SkipTrainConstrainedScheduler scheduler(
      1, 1, 40, std::vector<std::size_t>(8, 2), 13);

  // Custom accountant with budget 2: emulate by consuming canonical budget
  // down to 2 is impractical; instead check the scheduler+engine contract:
  // remaining_budget is forwarded, and once an artificial budget hits zero
  // the node stops. We verify through the scheduler directly.
  std::size_t trained = 0;
  std::size_t budget = 2;
  for (std::size_t t = 1; t <= 40; ++t) {
    if (scheduler.should_train(t, 0, budget)) {
      ++trained;
      --budget;
    }
  }
  EXPECT_LE(trained, 2u);
}

TEST(Engine, EnergyBookkeepingMatchesClosedForm) {
  Fixture fixture(8, 4);
  const core::DpsgdScheduler scheduler;
  RoundEngine engine = fixture.make_engine(scheduler);
  engine.run_rounds(10);

  double expected_train_mwh = 0.0;
  for (std::size_t i = 0; i < 8; ++i) {
    expected_train_mwh += fixture.fleet.training_energy_mwh(i) * 10.0;
  }
  EXPECT_NEAR(engine.accountant().total_training_wh(),
              expected_train_mwh / 1000.0, 1e-9);
  EXPECT_GT(engine.accountant().total_comm_wh(), 0.0);

  // SkipTrain(1,1) over the same horizon must consume half the training
  // energy (5 of 10 rounds train).
  const core::SkipTrainScheduler skip(1, 1);
  RoundEngine engine_skip = fixture.make_engine(skip);
  engine_skip.run_rounds(10);
  EXPECT_NEAR(engine_skip.accountant().total_training_wh(),
              engine.accountant().total_training_wh() / 2.0, 1e-9);
  // Communication energy is identical: sharing happens every round.
  EXPECT_NEAR(engine_skip.accountant().total_comm_wh(),
              engine.accountant().total_comm_wh(), 1e-12);
}

TEST(Engine, CompressedWireVolumeRoundsToNearest) {
  // Regression: the k/dim wire fraction used to be floored via
  // static_cast, so a k=1 exchange of a small model could bill 1 (or even
  // 0) effective parameters instead of the rounded wire volume.
  Fixture fixture(8, 4);
  // dim = 64*10 + 10 = 650; billed size 975 -> k=1 is 1.5 params, which
  // must round to 2, not floor to 1.
  const nn::Sequential prototype = nn::make_softmax_regression(64, 10);
  const std::size_t billed_params = 975;
  std::vector<std::size_t> degrees(8);
  for (std::size_t i = 0; i < 8; ++i) {
    degrees[i] = fixture.topology.degree(i);
  }
  energy::EnergyAccountant accountant(fixture.fleet, energy::CommModel{},
                                      billed_params, std::move(degrees));
  const core::DpsgdScheduler scheduler;
  EngineConfig config;
  config.local_steps = 1;
  config.batch_size = 4;
  config.sparse_exchange_k = 1;
  RoundEngine engine(prototype, fixture.data, fixture.mixing, scheduler,
                     std::move(accountant), config);
  engine.run_round();

  const energy::CommModel comm;
  double expected_wh = 0.0;
  double floored_wh = 0.0;
  for (std::size_t i = 0; i < 8; ++i) {
    expected_wh +=
        comm.exchange_energy_mwh(2, fixture.topology.degree(i)) / 1000.0;
    floored_wh +=
        comm.exchange_energy_mwh(1, fixture.topology.degree(i)) / 1000.0;
  }
  EXPECT_NEAR(engine.accountant().total_comm_wh(), expected_wh, 1e-15);
  EXPECT_GT(engine.accountant().total_comm_wh(), floored_wh * 1.5);
}

TEST(Engine, MismatchedSizesThrow) {
  Fixture fixture(8, 4);
  const core::DpsgdScheduler scheduler;
  const graph::MixingMatrix wrong = graph::MixingMatrix::all_reduce(9);
  EXPECT_THROW(RoundEngine(fixture.prototype, fixture.data, wrong, scheduler,
                           fixture.make_accountant(), EngineConfig{}),
               std::invalid_argument);
}

TEST(Engine, TrainingChangesParameters) {
  Fixture fixture(8, 4);
  const core::DpsgdScheduler scheduler;
  RoundEngine engine = fixture.make_engine(scheduler);
  const std::vector<float> before = fixture.prototype.parameters_flat();
  engine.run_round();
  double moved = 0.0;
  for (std::size_t i = 0; i < engine.num_nodes(); ++i) {
    const auto& params = engine.node_parameters()[i];
    for (std::size_t k = 0; k < params.size(); ++k) {
      moved += std::abs(params[k] - before[k]);
    }
  }
  EXPECT_GT(moved, 1e-3);
}

std::uint64_t fnv1a64(plane::ConstMatrixView plane) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(plane.data);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < plane.rows * plane.dim * sizeof(float); ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::vector<nn::Sequential*> models_of(RoundEngine& engine) {
  std::vector<nn::Sequential*> models;
  for (std::size_t i = 0; i < engine.num_nodes(); ++i) {
    models.push_back(&engine.model(i));
  }
  return models;
}

// Generated before node models lost their gradients, activations and pool
// routing; the only ctest pin of the CNN training bits (Conv2d, GroupNorm,
// MaxPool2d, im2col) besides the benchmark's cnn_lenet SHA-256.
TEST(Engine, GnLenetTrainingGolden) {
  const Fixture fixture(4, 2, 42, /*lenet=*/true);
  const core::SkipTrainScheduler scheduler(1, 1);
  EngineConfig config;
  config.local_steps = 2;
  config.batch_size = 4;
  RoundEngine engine = fixture.make_engine(scheduler, config);
  engine.run_rounds(2);

  const metrics::Evaluator evaluator(&fixture.data.test, 0, 8);
  const auto fleet = evaluator.evaluate_fleet(models_of(engine));
  std::vector<std::uint64_t> accuracy_bits;
  for (const double acc : fleet.per_node) {
    accuracy_bits.push_back(std::bit_cast<std::uint64_t>(acc));
  }
  EXPECT_EQ(fnv1a64(engine.node_parameters()), 0x38567150e06eb76dULL);
  // 3/32, 3/32, 2/32 and 3/32 of the 32 test samples.
  EXPECT_EQ(accuracy_bits,
            (std::vector<std::uint64_t>{
                0x3fb8000000000000ULL, 0x3fb8000000000000ULL,
                0x3fb0000000000000ULL, 0x3fb8000000000000ULL}));
}

/// Trains every node of a fresh engine in `order` on the calling thread,
/// evaluating each node right after its training so eval batches (5 and 1
/// samples) and training batches (4) alternate through the same workspace
/// buffers. Returns the FNV-1a of the plane.
std::uint64_t train_in_order(const Fixture& fixture,
                             const std::vector<std::size_t>& order) {
  const core::SkipTrainScheduler scheduler(1, 1);
  RoundEngine engine = fixture.make_engine(scheduler);
  const metrics::Evaluator evaluator(&fixture.data.test, 6, 5);
  for (const std::size_t node : order) {
    engine.nodes()[node]->train_local(2, 4);
    (void)evaluator.evaluate(engine.model(node));
  }
  return fnv1a64(engine.node_parameters());
}

// The workspace carries nothing from one node (or model) to the next: the
// order nodes train in on one thread never shows in their parameters.
TEST(Engine, TrainingOrderOnOneThreadIsInvisible) {
  const Fixture mlp(4, 2);
  const Fixture lenet(4, 2, 42, /*lenet=*/true);
  const std::uint64_t mlp_forward = train_in_order(mlp, {0, 1, 2, 3});
  const std::uint64_t lenet_forward = train_in_order(lenet, {0, 1, 2, 3});
  // Interleave the two architectures so each reverse-order run finds the
  // workspace last used by the other model.
  const std::uint64_t lenet_reverse = train_in_order(lenet, {3, 1, 0, 2});
  const std::uint64_t mlp_reverse = train_in_order(mlp, {3, 2, 1, 0});
  EXPECT_EQ(mlp_forward, mlp_reverse);
  EXPECT_EQ(lenet_forward, lenet_reverse);
}

// A replica keeps only its parameters (a plane row): no gradients, no
// activations and no max-pool routing outlive train_local or an eval.
TEST(Engine, NodeReplicaHoldsOnlyItsParameters) {
  const Fixture fixture(4, 2, 42, /*lenet=*/true);
  const core::SkipTrainScheduler scheduler(1, 1);
  EngineConfig config;
  config.local_steps = 2;
  config.batch_size = 4;
  RoundEngine engine = fixture.make_engine(scheduler, config);
  engine.run_rounds(2);  // trains on the pool's workers
  for (std::size_t i = 0; i < engine.num_nodes(); ++i) {
    nn::Sequential& model = engine.model(i);
    EXPECT_TRUE(model.gradient_arena().empty());
    for (std::size_t l = 0; l < model.num_layers(); ++l) {
      EXPECT_TRUE(model.layer(l).gradients().empty()) << "layer " << l;
    }
  }

  // Size this thread's workspace, then train and evaluate another node:
  // every byte that step allocates is freed again by the time it returns.
  const metrics::Evaluator evaluator(&fixture.data.test, 0, 8);
  engine.nodes()[0]->train_local(2, 4);
  (void)evaluator.evaluate(engine.model(0));
  const std::int64_t before = t_live_bytes;
  engine.nodes()[1]->train_local(2, 4);
  (void)evaluator.evaluate(engine.model(1));
  EXPECT_EQ(t_live_bytes, before);
  EXPECT_TRUE(engine.model(1).gradient_arena().empty());
}

}  // namespace
}  // namespace skiptrain::sim
