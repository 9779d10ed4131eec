// Masked sparse exchange through RoundEngine: full-k equivalence to the
// dense exchange, wire-fraction billing, and consensus under sync rounds.
#include <gtest/gtest.h>

#include "core/scheduler.hpp"
#include "data/synthetic.hpp"
#include "energy/accountant.hpp"
#include "graph/mixing.hpp"
#include "graph/topology.hpp"
#include "nn/init.hpp"
#include "nn/model_zoo.hpp"
#include "sim/engine.hpp"

namespace skiptrain::core {
namespace {

struct CompressionFixture {
  data::FederatedData data;
  nn::Sequential prototype;
  graph::Topology topology;
  graph::MixingMatrix mixing;
  energy::Fleet fleet;

  CompressionFixture()
      : fleet(energy::Fleet::even(8, energy::Workload::kCifar10)) {
    data::CifarSynConfig config;
    config.nodes = 8;
    config.samples_per_node = 30;
    config.test_pool = 100;
    data = data::make_cifar_synthetic(config);
    prototype = nn::make_mlp(config.feature_dim, {8}, 10);
    util::Rng rng(1);
    nn::initialize(prototype, rng);
    util::Rng topo_rng(2);
    topology = graph::make_random_regular(8, 4, topo_rng);
    mixing = graph::MixingMatrix::metropolis_hastings(topology);
  }

  sim::RoundEngine make_engine(const RoundScheduler& scheduler,
                               std::size_t topk) {
    std::vector<std::size_t> degrees(8, 4);
    energy::EnergyAccountant accountant(fleet, energy::CommModel{}, 89834,
                                        std::move(degrees));
    sim::EngineConfig config;
    config.local_steps = 2;
    config.batch_size = 8;
    config.sparse_exchange_k = topk;
    return sim::RoundEngine(prototype, data, mixing, scheduler,
                            std::move(accountant), config);
  }
};

TEST(CompressedEngine, FullKMatchesDenseExchange) {
  CompressionFixture fixture;
  const DpsgdScheduler scheduler;
  const std::size_t dim = fixture.prototype.num_parameters();

  auto dense = fixture.make_engine(scheduler, 0);
  auto sparse_full = fixture.make_engine(scheduler, dim);
  dense.run_rounds(4);
  sparse_full.run_rounds(4);

  for (std::size_t i = 0; i < 8; ++i) {
    const auto& a = dense.node_parameters()[i];
    const auto& b = sparse_full.node_parameters()[i];
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_NEAR(a[k], b[k], 1e-5f) << "node " << i << " coord " << k;
    }
  }
}

TEST(CompressedEngine, CommEnergyScalesWithWireFraction) {
  CompressionFixture fixture;
  const DpsgdScheduler scheduler;
  const std::size_t dim = fixture.prototype.num_parameters();

  auto dense = fixture.make_engine(scheduler, 0);
  auto sparse = fixture.make_engine(scheduler, dim / 10);  // 10% wire volume
  dense.run_rounds(3);
  sparse.run_rounds(3);

  const double fraction =
      sparse.accountant().total_comm_wh() / dense.accountant().total_comm_wh();
  EXPECT_NEAR(fraction, 0.1, 0.02);
  // Training energy is unaffected by exchange compression.
  EXPECT_DOUBLE_EQ(sparse.accountant().total_training_wh(),
                   dense.accountant().total_training_wh());
}

TEST(CompressedEngine, SparseSyncStillContracts) {
  CompressionFixture fixture;

  // Sync-only scheduler via Greedy with zero budgets.
  const GreedyScheduler scheduler;
  std::vector<std::size_t> degrees(8, 4);
  energy::EnergyAccountant accountant(fixture.fleet, energy::CommModel{},
                                      89834, std::move(degrees));
  accountant.set_budgets(std::vector<std::size_t>(8, 0));
  sim::EngineConfig config;
  config.sparse_exchange_k = fixture.prototype.num_parameters() / 4;
  sim::RoundEngine engine(fixture.prototype, fixture.data, fixture.mixing,
                          scheduler, std::move(accountant), config);

  util::Rng rng(5);
  for (std::size_t i = 0; i < 8; ++i) {
    std::vector<float> params(fixture.prototype.num_parameters());
    rng.fill_normal(params, 0.0f, 1.0f);
    engine.model(i).set_parameters(params);
  }
  const auto spread = [&] {
    double total = 0.0;
    const auto& reference = engine.node_parameters()[0];
    for (std::size_t i = 1; i < 8; ++i) {
      const auto& params = engine.node_parameters()[i];
      for (std::size_t k = 0; k < params.size(); ++k) {
        total += std::abs(params[k] - reference[k]);
      }
    }
    return total;
  };
  engine.run_round();
  const double before = spread();
  engine.run_rounds(12);
  EXPECT_LT(spread(), before * 0.8);
}

}  // namespace
}  // namespace skiptrain::core
