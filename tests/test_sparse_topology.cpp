// Implicit/CSR sparse topology layer: spec parsing, bitwise equivalence of
// the implicit k-regular graph and of the mixing matrices built from
// implicit and CSR graphs against their materialized twins, the engine on
// sparse topologies through checkpoint save/restore, sparse-degree energy
// billing, the gated CSV topology column, and hostile CSR-file parsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/io.hpp"
#include "core/scheduler.hpp"
#include "data/synthetic.hpp"
#include "energy/accountant.hpp"
#include "graph/mixing.hpp"
#include "graph/sparse.hpp"
#include "graph/topology.hpp"
#include "nn/init.hpp"
#include "nn/model_zoo.hpp"
#include "sim/engine.hpp"
#include "sim/runner.hpp"
#include "sweep/dataset_cache.hpp"
#include "sweep/grid.hpp"
#include "sweep/result_sink.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace skiptrain {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---------------------------------------------------------------------------
// TopologySpec parsing
// ---------------------------------------------------------------------------

TEST(TopologySpec, ParsesValidTokens) {
  EXPECT_EQ(graph::TopologySpec::parse("").kind,
            graph::TopologySpec::Kind::kDense);
  EXPECT_EQ(graph::TopologySpec::parse("dense").kind,
            graph::TopologySpec::Kind::kDense);
  const auto kreg = graph::TopologySpec::parse("kregular:6");
  EXPECT_EQ(kreg.kind, graph::TopologySpec::Kind::kKRegular);
  EXPECT_EQ(kreg.k, 6u);
  EXPECT_EQ(kreg.token(), "kregular:6");
  const auto csr = graph::TopologySpec::parse("csr:/tmp/graph.csr");
  EXPECT_EQ(csr.kind, graph::TopologySpec::Kind::kCsr);
  EXPECT_EQ(csr.path, "/tmp/graph.csr");
  EXPECT_EQ(csr.token(), "csr:/tmp/graph.csr");
  EXPECT_EQ(graph::TopologySpec::parse("dense").token(), "dense");
  EXPECT_EQ(graph::topology_token(""), "dense");
  EXPECT_EQ(graph::topology_token("kregular:6"), "kregular:6");
}

TEST(TopologySpec, RejectsHostileTokens) {
  for (const char* token :
       {"kregula:6", "sparse", "kregular:", "kregular:1", "kregular:0",
        "kregular:abc", "kregular:6x", "kregular:-4", "kregular:12345678",
        "csr:", "dense:3", "KREGULAR:6"}) {
    EXPECT_THROW((void)graph::TopologySpec::parse(token),
                 std::invalid_argument)
        << "token: " << token;
  }
}

// ---------------------------------------------------------------------------
// ImplicitKRegular vs materialized adjacency
// ---------------------------------------------------------------------------

TEST(ImplicitKRegular, MatchesMaterializedAdjacency) {
  for (const std::size_t n : {std::size_t{8}, std::size_t{12},
                              std::size_t{64}}) {
    for (const std::size_t k :
         {std::size_t{2}, std::size_t{4}, std::size_t{5}, std::size_t{6}}) {
      const graph::ImplicitKRegular implicit(n, k, 123);
      const graph::Topology topology = implicit.materialize();
      ASSERT_EQ(topology.num_nodes(), n);
      EXPECT_TRUE(topology.is_regular());
      EXPECT_TRUE(topology.is_connected());
      std::vector<std::size_t> buf(k);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(topology.degree(i), k) << "n=" << n << " k=" << k;
        implicit.neighbors_into(i, buf);
        // neighbors_into emits ascending order — exactly Topology's
        // sorted adjacency.
        ASSERT_EQ(buf, topology.neighbors(i)) << "n=" << n << " k=" << k
                                              << " node=" << i;
      }
    }
  }
}

TEST(ImplicitKRegular, IsDeterministicInSeedAndRejectsBadCombos) {
  const graph::ImplicitKRegular a(64, 6, 99);
  const graph::ImplicitKRegular b(64, 6, 99);
  ASSERT_EQ(a.offsets().size(), b.offsets().size());
  EXPECT_TRUE(std::equal(a.offsets().begin(), a.offsets().end(),
                         b.offsets().begin()));
  EXPECT_EQ(a.config_hash(), b.config_hash());
  // Any of (n, k, seed) changing must change the checkpoint identity.
  EXPECT_NE(a.config_hash(), graph::ImplicitKRegular(64, 6, 100).config_hash());
  EXPECT_NE(a.config_hash(), graph::ImplicitKRegular(64, 4, 99).config_hash());
  EXPECT_NE(a.config_hash(), graph::ImplicitKRegular(62, 6, 99).config_hash());

  EXPECT_THROW(graph::ImplicitKRegular(2, 2, 0), std::invalid_argument);
  EXPECT_THROW(graph::ImplicitKRegular(8, 1, 0), std::invalid_argument);
  EXPECT_THROW(graph::ImplicitKRegular(8, 8, 0), std::invalid_argument);
  EXPECT_THROW(graph::ImplicitKRegular(8, 9, 0), std::invalid_argument);
  // Odd degree needs the antipodal offset, which needs even n.
  EXPECT_THROW(graph::ImplicitKRegular(9, 3, 0), std::invalid_argument);

  std::vector<std::size_t> wrong(5);
  EXPECT_THROW(a.neighbors_into(0, wrong), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Mixing from sparse graphs vs the materialized Metropolis–Hastings oracle
// ---------------------------------------------------------------------------

void expect_mixing_bitwise_equal(const graph::MixingMatrix& sparse,
                                 const graph::MixingMatrix& materialized) {
  ASSERT_EQ(sparse.num_nodes(), materialized.num_nodes());
  for (std::size_t i = 0; i < sparse.num_nodes(); ++i) {
    ASSERT_EQ(sparse.self_weight(i), materialized.self_weight(i))
        << "node " << i;
    const auto sw = sparse.neighbor_weights(i);
    const auto mw = materialized.neighbor_weights(i);
    ASSERT_EQ(sw.size(), mw.size()) << "node " << i;
    ASSERT_EQ(sparse.degree(i), sw.size()) << "node " << i;
    for (std::size_t e = 0; e < sw.size(); ++e) {
      ASSERT_EQ(sw[e].neighbor, mw[e].neighbor) << "node " << i;
      ASSERT_EQ(sw[e].weight, mw[e].weight) << "node " << i;
    }
  }
}

TEST(SparseMixing, ImplicitMatchesDenseOracleBitwise) {
  for (const std::size_t n : {std::size_t{8}, std::size_t{64}}) {
    for (const std::size_t k :
         {std::size_t{2}, std::size_t{4}, std::size_t{5}, std::size_t{6}}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k));
      const graph::ImplicitKRegular implicit(n, k, 31);
      const auto sparse = graph::MixingMatrix::metropolis_hastings(implicit);
      const auto materialized =
          graph::MixingMatrix::metropolis_hastings(implicit.materialize());
      expect_mixing_bitwise_equal(sparse, materialized);
      // Same weights in the same order: the diagnostics agree exactly.
      EXPECT_EQ(sparse.spectral_gap(), materialized.spectral_gap());
      EXPECT_GT(sparse.spectral_gap(), 0.0);
      EXPECT_EQ(sparse.symmetry_error(), 0.0);
    }
  }
}

TEST(SparseMixing, CsrFromTopologyMatchesDenseOracleBitwise) {
  util::Rng topo_rng(11);
  const auto topology = graph::make_random_regular(16, 4, topo_rng);
  const auto csr = graph::CsrGraph::from_topology(topology);
  EXPECT_EQ(csr.num_nodes(), 16u);
  EXPECT_EQ(csr.num_entries(), 16u * 4u);
  EXPECT_TRUE(csr.is_connected());
  // Materialize round-trips the exact adjacency.
  EXPECT_EQ(graph::CsrGraph::from_topology(csr.materialize()).content_hash(),
            csr.content_hash());
  expect_mixing_bitwise_equal(
      graph::MixingMatrix::metropolis_hastings(csr),
      graph::MixingMatrix::metropolis_hastings(topology));

  // An irregular graph takes the max-degree branch of the weights: on a
  // 5-node path every edge weighs 1/(max(deg) + 1) = 1/3, the degree-1
  // ends included, and each end keeps the remaining 2/3 for itself.
  std::istringstream path(
      "skiptrain-csr v1\nnodes 5\n1 1\n2 0 2\n2 1 3\n2 2 4\n1 3\n");
  const auto path_csr = graph::CsrGraph::parse(path, "path");
  const auto path_mixing = graph::MixingMatrix::metropolis_hastings(path_csr);
  expect_mixing_bitwise_equal(
      path_mixing,
      graph::MixingMatrix::metropolis_hastings(path_csr.materialize()));
  EXPECT_EQ(path_mixing.weight(0, 1), 1.0f / 3.0f);
  EXPECT_EQ(path_mixing.self_weight(0), 1.0f - 1.0f / 3.0f);
  EXPECT_EQ(path_mixing.symmetry_error(), 0.0);
}

// ---------------------------------------------------------------------------
// Engines on sparse topologies
// ---------------------------------------------------------------------------

struct SparseEngineFixture {
  data::FederatedData data;
  nn::Sequential prototype;
  graph::ImplicitKRegular implicit;
  graph::MixingMatrix sparse;
  graph::Topology materialized;
  graph::MixingMatrix dense;
  energy::Fleet fleet;

  explicit SparseEngineFixture(std::size_t nodes = 12, std::size_t k = 4,
                               std::uint64_t seed = 42)
      : implicit(nodes, k, seed + 7),
        fleet(energy::Fleet::even(nodes, energy::Workload::kCifar10)) {
    data::CifarSynConfig config;
    config.nodes = nodes;
    config.samples_per_node = 24;
    config.test_pool = 60;
    config.seed = seed;
    data = data::make_cifar_synthetic(config);
    prototype = nn::make_mlp(config.feature_dim, {12}, 10);
    util::Rng rng(seed);
    nn::initialize(prototype, rng);
    sparse = graph::MixingMatrix::metropolis_hastings(implicit);
    materialized = implicit.materialize();
    dense = graph::MixingMatrix::metropolis_hastings(materialized);
  }

  energy::EnergyAccountant make_accountant() const {
    std::vector<std::size_t> degrees(fleet.num_nodes(), implicit.degree());
    return energy::EnergyAccountant(fleet, energy::CommModel{}, 89834,
                                    std::move(degrees));
  }

  sim::RoundEngine make_engine(const graph::MixingMatrix& mixing,
                               const core::RoundScheduler& scheduler,
                               std::uint64_t topology_hash) const {
    sim::EngineConfig config;
    config.local_steps = 2;
    config.batch_size = 8;
    config.topology_hash = topology_hash;
    return sim::RoundEngine(prototype, data, mixing, scheduler,
                            make_accountant(), config);
  }

  void scatter_models(sim::RoundEngine& engine, std::uint64_t seed) const {
    util::Rng rng(seed);
    std::vector<float> params(prototype.num_parameters());
    for (std::size_t i = 0; i < engine.num_nodes(); ++i) {
      rng.fill_normal(params, 0.0f, 1.0f);
      engine.model(i).set_parameters(params);
    }
  }
};

TEST(SparseEngine, RoundsBitIdenticalToDenseMixingOnSameGraph) {
  SparseEngineFixture fixture;
  const core::SkipTrainScheduler scheduler(2, 2);

  sim::RoundEngine sparse_engine = fixture.make_engine(
      fixture.sparse, scheduler, fixture.implicit.config_hash());
  sim::RoundEngine dense_engine = fixture.make_engine(fixture.dense,
                                                      scheduler, 0);
  fixture.scatter_models(sparse_engine, 99);
  fixture.scatter_models(dense_engine, 99);
  sparse_engine.run_rounds(5);
  dense_engine.run_rounds(5);

  for (std::size_t i = 0; i < sparse_engine.num_nodes(); ++i) {
    const auto a = sparse_engine.node_parameters()[i];
    const auto b = dense_engine.node_parameters()[i];
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "node " << i;
  }
  // Same graph, same weights: billed energy must agree exactly too.
  EXPECT_EQ(sparse_engine.accountant().total_comm_wh(),
            dense_engine.accountant().total_comm_wh());
}

TEST(SparseEngine, RoundsBitIdenticalAcrossThreadCounts) {
  SparseEngineFixture fixture(8, 4);
  const core::SkipTrainScheduler scheduler(2, 2);

  sim::RoundEngine parallel_engine = fixture.make_engine(
      fixture.sparse, scheduler, fixture.implicit.config_hash());
  fixture.scatter_models(parallel_engine, 7);
  parallel_engine.run_rounds(5);

  sim::RoundEngine serial_engine = fixture.make_engine(
      fixture.sparse, scheduler, fixture.implicit.config_hash());
  fixture.scatter_models(serial_engine, 7);
  {
    util::ThreadPool::ScopedForceSerial serial;
    serial_engine.run_rounds(5);
  }
  for (std::size_t i = 0; i < parallel_engine.num_nodes(); ++i) {
    const auto a = parallel_engine.node_parameters()[i];
    const auto b = serial_engine.node_parameters()[i];
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "node " << i;
  }
}

TEST(SparseEngine, SaveRestoreContinuesBitIdentically) {
  SparseEngineFixture fixture;
  const core::SkipTrainScheduler scheduler(2, 2);
  const std::uint64_t hash = fixture.implicit.config_hash();

  sim::RoundEngine original = fixture.make_engine(fixture.sparse, scheduler,
                                                  hash);
  fixture.scatter_models(original, 55);
  original.run_rounds(3);

  std::stringstream buffer;
  {
    ckpt::ImageWriter writer(buffer);
    original.save_state(writer);
  }
  const std::string bytes = buffer.str();

  sim::RoundEngine restored = fixture.make_engine(fixture.sparse, scheduler,
                                                  hash);
  {
    std::istringstream in(bytes);
    ckpt::ImageReader reader(in, bytes.size());
    restored.restore_state(reader);
  }
  original.run_rounds(2);
  restored.run_rounds(2);
  for (std::size_t i = 0; i < original.num_nodes(); ++i) {
    const auto a = original.node_parameters()[i];
    const auto b = restored.node_parameters()[i];
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "node " << i;
  }

  // A different topology identity must refuse the image outright.
  sim::RoundEngine wrong_topology =
      fixture.make_engine(fixture.sparse, scheduler, hash + 1);
  std::istringstream in(bytes);
  ckpt::ImageReader reader(in, bytes.size());
  EXPECT_THROW(wrong_topology.restore_state(reader), std::runtime_error);
}

// ---------------------------------------------------------------------------
// run_experiment over the topology axis
// ---------------------------------------------------------------------------

sweep::SweepGrid tiny_grid() {
  sweep::SweepGrid grid;
  grid.name = "sparse";
  grid.data.nodes = 8;
  grid.data.samples_per_node = 6;
  grid.data.test_pool = 40;
  grid.base.total_rounds = 6;
  grid.base.local_steps = 1;
  grid.base.batch_size = 4;
  grid.base.gamma_train = 1;
  grid.base.gamma_sync = 1;
  grid.base.eval_every = 3;
  grid.base.eval_max_samples = 20;
  grid.base.degree = 4;
  return grid;
}

TEST(RunExperiment, KRegularCheckpointResumeIsByteIdentical) {
  const std::string image = temp_path("sparse_experiment.sktf");
  std::filesystem::remove(image);
  sweep::DatasetCache cache;
  const auto workload = cache.get(tiny_grid().data);

  sim::RunOptions options = tiny_grid().base;
  options.algorithm = sim::Algorithm::kSkipTrain;
  options.topology = "kregular:4";
  options.checkpoint_path = image;
  options.checkpoint_every = 2;

  const sim::ExperimentResult full =
      sim::run_experiment(workload->data, workload->prototype, options);
  ASSERT_TRUE(std::filesystem::exists(image));  // round-4 image left behind

  options.resume = true;
  const sim::ExperimentResult resumed =
      sim::run_experiment(workload->data, workload->prototype, options);
  const std::string full_csv = temp_path("sparse_experiment_full.csv");
  const std::string resumed_csv = temp_path("sparse_experiment_resumed.csv");
  full.recorder.write_csv(full_csv);
  resumed.recorder.write_csv(resumed_csv);
  const std::string csv_bytes = read_file(full_csv);
  EXPECT_FALSE(csv_bytes.empty());
  EXPECT_EQ(csv_bytes, read_file(resumed_csv));
  EXPECT_EQ(full.final_per_node_accuracy, resumed.final_per_node_accuracy);

  // An image from a DIFFERENT topology must not contribute state: the
  // implicit graph's config_hash is part of the engine identity, so the
  // resume falls back to a fresh run that matches a clean one exactly.
  sim::RunOptions other = options;
  other.topology = "kregular:6";
  const sim::ExperimentResult other_resumed =
      sim::run_experiment(workload->data, workload->prototype, other);
  other.resume = false;
  other.checkpoint_path.clear();
  const sim::ExperimentResult other_fresh =
      sim::run_experiment(workload->data, workload->prototype, other);
  EXPECT_EQ(other_resumed.final_per_node_accuracy,
            other_fresh.final_per_node_accuracy);
}

TEST(RunExperiment, CsrFileRunMatchesEquivalentImplicitRing) {
  // kregular:2 is exactly the ring (offset set {1} for every seed), so a
  // CSR file spelling out the same ring must reproduce the run bit-for-
  // bit — same mixing weights, same energy, same accuracies.
  sweep::DatasetCache cache;
  const auto workload = cache.get(tiny_grid().data);
  const std::string path = temp_path("ring8.csr");
  std::ostringstream ring;
  ring << "skiptrain-csr v1\nnodes 8\n";
  for (std::size_t i = 0; i < 8; ++i) {
    const std::size_t lo = (i + 7) % 8;
    const std::size_t hi = (i + 1) % 8;
    ring << "2 " << std::min(lo, hi) << " " << std::max(lo, hi) << "\n";
  }
  write_file(path, ring.str());

  sim::RunOptions options = tiny_grid().base;
  options.algorithm = sim::Algorithm::kSkipTrain;
  options.topology = "csr:" + path;
  const sim::ExperimentResult from_csr =
      sim::run_experiment(workload->data, workload->prototype, options);
  options.topology = "kregular:2";
  const sim::ExperimentResult from_implicit =
      sim::run_experiment(workload->data, workload->prototype, options);

  EXPECT_EQ(from_csr.final_per_node_accuracy,
            from_implicit.final_per_node_accuracy);
  EXPECT_EQ(from_csr.total_comm_wh, from_implicit.total_comm_wh);
  EXPECT_EQ(from_csr.total_training_wh, from_implicit.total_training_wh);
}

TEST(RunExperiment, SparseTopologyBillsActualNeighborCount) {
  sweep::DatasetCache cache;
  const auto workload = cache.get(tiny_grid().data);
  sim::RunOptions options = tiny_grid().base;
  options.algorithm = sim::Algorithm::kSkipTrain;

  const auto run = [&](const std::string& topology) {
    sim::RunOptions o = options;
    o.topology = topology;
    return sim::run_experiment(workload->data, workload->prototype, o);
  };
  // Every node has degree 4 under both the dense random-regular graph
  // and the implicit 4-regular circulant, so the billed exchange energy
  // is identical even though the graphs differ.
  const sim::ExperimentResult dense = run("dense");
  const sim::ExperimentResult kreg4 = run("kregular:4");
  EXPECT_GT(kreg4.total_comm_wh, 0.0);
  EXPECT_DOUBLE_EQ(dense.total_comm_wh, kreg4.total_comm_wh);
  // Exchange energy scales with the actual neighbor count: fewer edges,
  // cheaper gossip (energy = mwh/MB x wire MB x degree).
  const sim::ExperimentResult kreg2 = run("kregular:2");
  const sim::ExperimentResult kreg6 = run("kregular:6");
  EXPECT_LT(kreg2.total_comm_wh, kreg4.total_comm_wh);
  EXPECT_LT(kreg4.total_comm_wh, kreg6.total_comm_wh);
  EXPECT_NEAR(kreg6.total_comm_wh / kreg2.total_comm_wh, 3.0, 1e-9);
}

TEST(RunExperiment, SparseTopologyRejectsAllReduceAndNodeMismatch) {
  sweep::DatasetCache cache;
  const auto workload = cache.get(tiny_grid().data);
  sim::RunOptions options = tiny_grid().base;
  options.algorithm = sim::Algorithm::kDpsgdAllReduce;
  options.topology = "kregular:4";
  EXPECT_THROW((void)sim::run_experiment(workload->data, workload->prototype,
                                         options),
               std::invalid_argument);

  // CSR node count must match the dataset.
  const std::string path = temp_path("ring4_mismatch.csr");
  write_file(path, "skiptrain-csr v1\nnodes 4\n2 1 3\n2 0 2\n2 1 3\n2 0 2\n");
  options.algorithm = sim::Algorithm::kSkipTrain;
  options.topology = "csr:" + path;
  EXPECT_THROW((void)sim::run_experiment(workload->data, workload->prototype,
                                         options),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Summary-CSV topology column gating
// ---------------------------------------------------------------------------

TEST(SweepCsv, TopologyColumnIsGatedAndOrdered) {
  const auto& base = sweep::ResultSink::csv_header();
  EXPECT_EQ(std::find(base.begin(), base.end(), "topology"), base.end());

  const auto& with = sweep::ResultSink::csv_header(false, false, true);
  const auto it = std::find(with.begin(), with.end(), "topology");
  ASSERT_NE(it, with.end());
  EXPECT_EQ(with.size(), base.size() + 1);
  const auto column = static_cast<std::size_t>(it - with.begin());
  // The axis column lands with its siblings, right after sparse_k.
  EXPECT_EQ(with[column - 1], "sparse_k");

  sweep::TrialResult row;
  row.spec.options.topology = "kregular:6";
  const auto cells = sweep::ResultSink::csv_row(row, false, false, true);
  ASSERT_EQ(cells.size(), with.size());
  EXPECT_EQ(cells[column], "kregular:6");
  // Dense rows render the canonical token; ungated rows keep the old
  // schema byte-for-byte.
  row.spec.options.topology.clear();
  EXPECT_EQ(sweep::ResultSink::csv_row(row, false, false, true)[column],
            "dense");
  EXPECT_EQ(sweep::ResultSink::csv_row(row).size(), base.size());
}

// ---------------------------------------------------------------------------
// Hostile CSR files
// ---------------------------------------------------------------------------

graph::CsrGraph parse_csr(const std::string& text) {
  std::istringstream in(text);
  return graph::CsrGraph::parse(in, "t");
}

TEST(CsrParse, AcceptsWellFormedFile) {
  const graph::CsrGraph csr =
      parse_csr("skiptrain-csr v1\nnodes 4\n2 1 3\n2 0 2\n2 1 3\n2 0 2\n");
  EXPECT_EQ(csr.num_nodes(), 4u);
  EXPECT_EQ(csr.num_entries(), 8u);
  EXPECT_TRUE(csr.is_connected());
  ASSERT_EQ(csr.degree(2), 2u);
  EXPECT_EQ(csr.neighbors(2)[0], 1u);
  EXPECT_EQ(csr.neighbors(2)[1], 3u);
  const graph::Topology topology = csr.materialize();
  EXPECT_TRUE(topology.has_edge(0, 1));
  EXPECT_TRUE(topology.has_edge(0, 3));
  EXPECT_FALSE(topology.has_edge(0, 2));
}

TEST(CsrParse, RejectsStructuralViolations) {
  const struct {
    const char* label;
    const char* text;
  } cases[] = {
      {"bad magic", "skiptrain-csr v2\nnodes 4\n2 1 3\n2 0 2\n2 1 3\n2 0 2\n"},
      {"missing magic", "nodes 4\n2 1 3\n2 0 2\n2 1 3\n2 0 2\n"},
      {"bad nodes keyword", "skiptrain-csr v1\nn 4\n2 1 3\n"},
      {"bad nodes count", "skiptrain-csr v1\nnodes x\n"},
      {"zero nodes", "skiptrain-csr v1\nnodes 0\n"},
      {"oversized nodes", "skiptrain-csr v1\nnodes 999999999999999999\n"},
      {"bad degree token",
       "skiptrain-csr v1\nnodes 4\nq 1 3\n2 0 2\n2 1 3\n2 0 2\n"},
      {"column out of range",
       "skiptrain-csr v1\nnodes 4\n2 1 9\n2 0 2\n2 1 3\n2 0 2\n"},
      {"self loop", "skiptrain-csr v1\nnodes 4\n2 0 1\n2 0 2\n2 1 3\n2 0 2\n"},
      {"unsorted columns",
       "skiptrain-csr v1\nnodes 4\n2 3 1\n2 0 2\n2 1 3\n2 0 2\n"},
      {"duplicate columns",
       "skiptrain-csr v1\nnodes 4\n2 1 1\n2 0 2\n2 1 3\n2 0 2\n"},
      {"fewer columns than degree",
       "skiptrain-csr v1\nnodes 4\n3 1 3\n2 0 2\n2 1 3\n2 0 2\n"},
      {"trailing tokens on row",
       "skiptrain-csr v1\nnodes 4\n2 1 3 7\n2 0 2\n2 1 3\n2 0 2\n"},
      {"truncated file", "skiptrain-csr v1\nnodes 4\n2 1 3\n2 0 2\n"},
      {"trailing content",
       "skiptrain-csr v1\nnodes 4\n2 1 3\n2 0 2\n2 1 3\n2 0 2\nextra\n"},
      {"asymmetric", "skiptrain-csr v1\nnodes 3\n1 1\n1 0\n1 1\n"},
      {"disconnected", "skiptrain-csr v1\nnodes 4\n1 1\n1 0\n1 3\n1 2\n"},
  };
  for (const auto& hostile : cases) {
    EXPECT_THROW((void)parse_csr(hostile.text), std::runtime_error)
        << hostile.label;
  }
  // Errors carry file:line context for the offending row.
  try {
    (void)parse_csr("skiptrain-csr v1\nnodes 3\n1 1\n1 0\n1 1\n");
    FAIL() << "asymmetric file parsed";
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what()).find("t:5"), std::string::npos)
        << err.what();
  }
  EXPECT_THROW((void)graph::CsrGraph::load_file(temp_path("no_such.csr")),
               std::runtime_error);
}

}  // namespace
}  // namespace skiptrain
