// Exchange golden matrix: one tiny fixture (8 nodes, compact MLP,
// SkipTrain Γt=2/Γs=1) driven through every exchange path RoundEngine
// can take — dense and masked-sparse rows, identity and quantized codecs,
// scenario churn, crash outages, lossy CRC-framed links, and the
// mixing built from an implicit k-regular topology. Each case
// pins the FNV-1a-64 of the final parameter bytes, the fault tallies, the
// exact wire-byte count and the bit pattern of the billed communication
// energy, so any refactor of the exchange code must reproduce all of them
// bit for bit. A second table pins the bytes of saved fleet images, so a
// refactor of the image format must keep them too.
//
// On a mismatch the test prints the actual row in table syntax; an
// intended behaviour change updates the row in the same commit.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "ckpt/fleet_image.hpp"
#include "core/scheduler.hpp"
#include "data/synthetic.hpp"
#include "energy/accountant.hpp"
#include "fault/fault.hpp"
#include "graph/mixing.hpp"
#include "graph/sparse.hpp"
#include "graph/topology.hpp"
#include "nn/init.hpp"
#include "nn/model_zoo.hpp"
#include "quant/codec.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine.hpp"

namespace skiptrain {
namespace {

constexpr std::size_t kNodes = 8;
constexpr std::size_t kDegree = 4;
constexpr std::size_t kRounds = 6;
constexpr std::uint64_t kSeed = 42;

struct Fixture {
  data::FederatedData data;
  nn::Sequential prototype;
  graph::Topology topology;
  graph::MixingMatrix mixing;
  graph::ImplicitKRegular kregular{kNodes, kDegree, kSeed};
  graph::MixingMatrix kregular_mixing;
  energy::Fleet fleet;

  Fixture() : fleet(energy::Fleet::even(kNodes, energy::Workload::kCifar10)) {
    data::CifarSynConfig config;
    config.nodes = kNodes;
    config.samples_per_node = 24;
    config.test_pool = 40;
    config.seed = kSeed;
    data = data::make_cifar_synthetic(config);
    prototype = nn::make_compact_cifar_model(config.feature_dim);
    util::Rng rng(kSeed);
    nn::initialize(prototype, rng);
    util::Rng topo_rng(kSeed + 1);
    topology = graph::make_random_regular(kNodes, kDegree, topo_rng);
    mixing = graph::MixingMatrix::metropolis_hastings(topology);
    kregular_mixing = graph::MixingMatrix::metropolis_hastings(kregular);
  }

  energy::EnergyAccountant make_accountant(quant::Codec codec) const {
    return energy::EnergyAccountant(fleet, quant::comm_model_for(codec), 89834,
                                    std::vector<std::size_t>(kNodes, kDegree));
  }
};

/// One observable fingerprint per run.
struct Golden {
  std::string label;
  std::uint64_t plane_fnv;
  std::uint64_t attempted;
  std::uint64_t dropped;
  std::uint64_t corrupt;
  std::uint64_t duplicated;
  std::uint64_t crash_down_rounds;
  std::uint64_t wire_bytes;
  std::uint64_t comm_wh_bits;

  bool operator==(const Golden&) const = default;
};

std::uint64_t fnv1a64(std::span<const unsigned char> bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t fnv1a64(plane::ConstMatrixView plane) {
  return fnv1a64({reinterpret_cast<const unsigned char*>(plane.data),
                  plane.rows * plane.dim * sizeof(float)});
}

Golden observe(const std::string& label, const sim::RoundEngine& engine) {
  const fault::FaultStats& stats = engine.fault_stats();
  return Golden{label,
                fnv1a64(engine.node_parameters()),
                stats.attempted_deliveries,
                stats.dropped,
                stats.corrupt,
                stats.duplicated,
                stats.crash_down_rounds,
                engine.wire_bytes_sent(),
                std::bit_cast<std::uint64_t>(
                    engine.accountant().total_comm_wh())};
}

std::string literal(const Golden& g) {
  char buffer[320];
  std::snprintf(buffer, sizeof(buffer),
                "{\"%s\", 0x%016llxULL, %llu, %llu, %llu, %llu, %llu, %llu, "
                "0x%016llxULL},",
                g.label.c_str(), static_cast<unsigned long long>(g.plane_fnv),
                static_cast<unsigned long long>(g.attempted),
                static_cast<unsigned long long>(g.dropped),
                static_cast<unsigned long long>(g.corrupt),
                static_cast<unsigned long long>(g.duplicated),
                static_cast<unsigned long long>(g.crash_down_rounds),
                static_cast<unsigned long long>(g.wire_bytes),
                static_cast<unsigned long long>(g.comm_wh_bits));
  return buffer;
}

void expect_golden(const Golden& actual, const std::vector<Golden>& table) {
  for (const Golden& expected : table) {
    if (expected.label != actual.label) continue;
    EXPECT_TRUE(actual == expected)
        << "golden mismatch\n  expected " << literal(expected)
        << "\n  actual   " << literal(actual);
    return;
  }
  ADD_FAILURE() << "no golden row; actual:\n" << literal(actual);
}

// --- RoundEngine ------------------------------------------------------------

struct SyncCase {
  const char* label;
  quant::Codec codec;
  std::size_t sparse_k;
  const char* faults;
  bool churn;
  bool kregular;
};

constexpr quant::Codec kId = quant::Codec::kIdentity;
constexpr quant::Codec kInt8 = quant::Codec::kInt8;
constexpr quant::Codec kInt8D = quant::Codec::kInt8Dithered;
constexpr const char* kLossy = "drop:0.1,corrupt:0.1,dup:0.1,crash:0.05";

const SyncCase kSyncCases[] = {
    {"dense-clean", kId, 0, "", false, false},
    {"dense-int8", kInt8, 0, "", false, false},
    {"dense-churn-identity", kId, 0, "", true, false},
    {"dense-churn-int8", kInt8, 0, "", true, false},
    {"dense-lossy-identity", kId, 0, kLossy, false, false},
    {"dense-lossy-int8d", kInt8D, 0, kLossy, false, false},
    {"dense-churn-lossy-int8", kInt8, 0, "drop:0.2,corrupt:0.1", true, false},
    {"sparse-clean-identity", kId, 241, "", false, false},
    {"sparse-clean-int8", kInt8, 241, "", false, false},
    {"sparse-lossy-identity", kId, 241, kLossy, false, false},
    {"sparse-lossy-int8d", kInt8D, 241, kLossy, false, false},
    {"sparse-churn-identity", kId, 241, "", true, false},
    {"kregular4-identity", kId, 0, "", false, true},
    {"kregular4-int8", kInt8, 0, "", false, true},
};

// clang-format off
const std::vector<Golden> kSyncGoldens = {
    {"dense-clean", 0xd0908bc93f813d85ULL, 0, 0, 0, 0, 0, 462720, 0x3f4caa907e8f5136ULL},
    {"dense-int8", 0xae311ba59d62a798ULL, 0, 0, 0, 0, 0, 130272, 0x3f301ff147309daeULL},
    {"dense-churn-identity", 0x9e0d935e521423b4ULL, 0, 0, 0, 0, 0, 250640, 0x3f3f0e1c891b42a6ULL},
    {"dense-churn-int8", 0x9ab103eaf0cd0cb0ULL, 0, 0, 0, 0, 0, 70564, 0x3f2177f00d1f557cULL},
    {"dense-lossy-identity", 0x4ed7d217d6a606dcULL, 162, 10, 11, 14, 4, 427196, 0x3f4a470474035fc7ULL},
    {"dense-lossy-int8d", 0x036dcd2d17428ceeULL, 162, 10, 11, 14, 4, 122452, 0x3f2d8fe50283cbbdULL},
    {"dense-churn-lossy-int8", 0x41c17c634a7b7393ULL, 76, 10, 6, 0, 0, 72358, 0x3f2177f00d1f557cULL},
    {"sparse-clean-identity", 0x4fb00445525ddfedULL, 0, 0, 0, 0, 0, 46272, 0x3f16ee971327a677ULL},
    {"sparse-clean-int8", 0x259f184f9c7fa190ULL, 0, 0, 0, 0, 0, 13104, 0x3ef9cc69f58c9b45ULL},
    {"sparse-lossy-identity", 0x23bc510285c81bfaULL, 162, 10, 11, 14, 4, 45452, 0x3f15055fd18f0343ULL},
    {"sparse-lossy-int8d", 0x5a24c574366004c8ULL, 162, 10, 11, 14, 4, 15048, 0x3ef7a60bcbc0e3aaULL},
    {"sparse-churn-identity", 0xdedc72acd21d52faULL, 0, 0, 0, 0, 0, 25064, 0x3f08d7ce54c049acULL},
    {"kregular4-identity", 0xff84118a48b008f1ULL, 0, 0, 0, 0, 0, 462720, 0x3f4caa907e8f5136ULL},
    {"kregular4-int8", 0x4ddd7b0edfe2c378ULL, 0, 0, 0, 0, 0, 130272, 0x3f301ff147309daeULL},
};
// clang-format on

/// The "churn" preset, started low enough that nodes brown out within the
/// fixture's six rounds.
scenario::ScenarioConfig early_churn() {
  scenario::ScenarioConfig config = scenario::make_config("churn");
  config.initial_soc = 0.25;
  return config;
}

TEST(ExchangeGolden, RoundEngineMatrix) {
  const Fixture fixture;
  const core::SkipTrainScheduler scheduler(2, 1);
  for (const SyncCase& c : kSyncCases) {
    SCOPED_TRACE(c.label);
    sim::EngineConfig config;
    config.local_steps = 2;
    config.batch_size = 8;
    config.seed = kSeed;
    config.exchange_codec = c.codec;
    config.sparse_exchange_k = c.sparse_k;
    config.faults = fault::make_plan(c.faults);
    if (c.churn) config.scenario = early_churn();
    const graph::MixingMatrix& mixing =
        c.kregular ? fixture.kregular_mixing : fixture.mixing;
    if (c.kregular) config.topology_hash = fixture.kregular.config_hash();
    sim::RoundEngine engine(fixture.prototype, fixture.data, mixing,
                            scheduler, fixture.make_accountant(c.codec),
                            config);
    engine.run_rounds(kRounds);

    // Each case must actually take the path it names.
    if (c.churn) {
      EXPECT_GT(engine.scenario()->down_steps_total(), 0u);
    }
    if (config.faults.link_faults()) {
      EXPECT_GT(engine.fault_stats().dropped, 0u);
      EXPECT_GT(engine.fault_stats().corrupt, 0u);
    }
    if (config.faults.crash_faults()) {
      EXPECT_GT(engine.fault_stats().crash_down_rounds, 0u);
    }
    expect_golden(observe(c.label, engine), kSyncGoldens);
  }
}

// --- fleet-image bytes ------------------------------------------------------

/// FNV-1a-64 of a saved RoundEngine image's file bytes: pins the whole
/// on-disk layout (identity prefix with its aux bits, plane blob,
/// accountant, scenario section, per-node state and the trailing
/// fault-stats section) on top of the state it encodes.
struct ImageCase {
  SyncCase run;
  std::uint64_t file_fnv;
};

// clang-format off
const ImageCase kImageCases[] = {
    {{"image-dense-clean", kId, 0, "", false, false}, 0x45c0f977127e14dbULL},
    {{"image-sparse-churn-lossy-int8", kInt8, 241, kLossy, true, false}, 0x2964d2c0900d50a4ULL},
};
// clang-format on

TEST(ExchangeGolden, FleetImageBytes) {
  const Fixture fixture;
  const core::SkipTrainScheduler scheduler(2, 1);
  const std::string path = testing::TempDir() + "exchange_golden.sktf";
  for (const ImageCase& c : kImageCases) {
    SCOPED_TRACE(c.run.label);
    sim::EngineConfig config;
    config.local_steps = 2;
    config.batch_size = 8;
    config.seed = kSeed;
    config.exchange_codec = c.run.codec;
    config.sparse_exchange_k = c.run.sparse_k;
    config.faults = fault::make_plan(c.run.faults);
    if (c.run.churn) config.scenario = early_churn();
    sim::RoundEngine engine(fixture.prototype, fixture.data, fixture.mixing,
                            scheduler, fixture.make_accountant(c.run.codec),
                            config);
    engine.run_rounds(kRounds);
    if (c.run.churn) {
      EXPECT_GT(engine.scenario()->down_steps_total(), 0u);
    }
    if (config.faults.link_faults()) {
      EXPECT_GT(engine.fault_stats().dropped, 0u);
    }
    ckpt::save_fleet_image(engine, path);

    std::ifstream in(path, std::ios::binary);
    const std::string bytes{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
    ASSERT_FALSE(bytes.empty());
    const std::uint64_t hash = fnv1a64(
        {reinterpret_cast<const unsigned char*>(bytes.data()), bytes.size()});
    char actual[32];
    std::snprintf(actual, sizeof(actual), "0x%016llxULL",
                  static_cast<unsigned long long>(hash));
    EXPECT_EQ(hash, c.file_fnv) << "actual " << actual << " over "
                                << bytes.size() << " bytes";
  }
}

}  // namespace
}  // namespace skiptrain
