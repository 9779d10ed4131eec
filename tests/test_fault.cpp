// Fault-injection layer: CRC32C known-answer vectors and the SSE4.2 path
// against the portable table at every length, offset and split, fault-plan
// parsing and validation, stateless draw determinism, wire-frame round-trip
// and exhaustive single-bit corruption rejection, engine-level thread-count
// and kill/resume invariance under active fault plans, duplicate-delivery
// idempotence, the fault and mixing registry counters, IO-fault retry, and
// multi-generation checkpoint fallback.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/fleet_image.hpp"
#include "ckpt/io.hpp"
#include "core/scheduler.hpp"
#include "data/synthetic.hpp"
#include "energy/accountant.hpp"
#include "fault/crc32c.hpp"
#include "fault/fault.hpp"
#include "fault/frame.hpp"
#include "graph/mixing.hpp"
#include "graph/topology.hpp"
#include "nn/init.hpp"
#include "nn/model_zoo.hpp"
#include "obs/registry.hpp"
#include "sim/engine.hpp"
#include "sim/runner.hpp"
#include "sweep/sweep.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace skiptrain {
namespace {

// --- CRC32C ----------------------------------------------------------------

TEST(Crc32c, KnownAnswerVectors) {
  // RFC 3720 / Castagnoli check value for the standard 9-byte vector.
  EXPECT_EQ(fault::crc32c("123456789", 9), 0xe3069283u);
  // Empty input: init xor final.
  EXPECT_EQ(fault::crc32c("", 0), 0x00000000u);
  // 32 zero bytes (iSCSI test vector).
  const std::vector<std::uint8_t> zeros(32, 0);
  EXPECT_EQ(fault::crc32c(zeros.data(), zeros.size()), 0x8a9136aau);
  // 32 0xff bytes (iSCSI test vector).
  const std::vector<std::uint8_t> ones(32, 0xff);
  EXPECT_EQ(fault::crc32c(ones.data(), ones.size()), 0x62a8ab43u);
}

TEST(Crc32c, PortablePathKnownAnswerVectors) {
  const auto portable = [](const void* data, std::size_t bytes) {
    return fault::crc32c_finish(
        fault::crc32c_update_portable(fault::kCrc32cInit, data, bytes));
  };
  EXPECT_EQ(portable("123456789", 9), 0xe3069283u);
  const std::vector<std::uint8_t> zeros(32, 0);
  EXPECT_EQ(portable(zeros.data(), zeros.size()), 0x8a9136aau);
  const std::vector<std::uint8_t> ones(32, 0xff);
  EXPECT_EQ(portable(ones.data(), ones.size()), 0x62a8ab43u);
}

#if defined(__x86_64__) && defined(__GNUC__)
TEST(Crc32c, TakesTheSse42PathWhereTheCpuHasIt) {
  __builtin_cpu_init();
  EXPECT_STREQ(fault::crc32c_isa(),
               __builtin_cpu_supports("sse4.2") ? "sse4.2" : "portable");
}
#endif

std::vector<std::uint8_t> crc_test_bytes(std::size_t size,
                                         std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint8_t> bytes(size);
  for (auto& byte : bytes) byte = static_cast<std::uint8_t>(rng.next_u64());
  return bytes;
}

TEST(Crc32c, DispatchedPathMatchesPortableAtEveryLengthAndOffset) {
  // crc32c_update runs 8-byte steps plus a byte tail on the SSE4.2 path,
  // so every length mod 8 and every start address mod 8 is its own case.
  const auto bytes = crc_test_bytes(1024 + 8, 3);
  for (const std::uint32_t start : {fault::kCrc32cInit, 0x12345678u}) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      for (std::size_t len = 0; len <= 1024; ++len) {
        ASSERT_EQ(fault::crc32c_update(start, bytes.data() + offset, len),
                  fault::crc32c_update_portable(start, bytes.data() + offset,
                                                len))
            << "start " << start << " offset " << offset << " len " << len;
      }
    }
  }
  const auto mebibyte = crc_test_bytes(std::size_t{1} << 20, 4);
  EXPECT_EQ(fault::crc32c(mebibyte.data(), mebibyte.size()),
            fault::crc32c_finish(fault::crc32c_update_portable(
                fault::kCrc32cInit, mebibyte.data(), mebibyte.size())));
}

TEST(Crc32c, IncrementalFeedsMatchPortableOneShot) {
  const auto bytes = crc_test_bytes(203, 5);
  const std::uint32_t expect = fault::crc32c_update_portable(
      fault::kCrc32cInit, bytes.data(), bytes.size());
  // Three runs [0, i), [i, j), [j, n) at every i <= j: verify_frame's
  // up-to-the-flip, flipped-byte and rest runs are the j = i + 1 cases.
  for (std::size_t i = 0; i <= bytes.size(); ++i) {
    for (std::size_t j = i; j <= bytes.size(); ++j) {
      std::uint32_t crc = fault::kCrc32cInit;
      crc = fault::crc32c_update(crc, bytes.data(), i);
      crc = fault::crc32c_update(crc, bytes.data() + i, j - i);
      crc = fault::crc32c_update(crc, bytes.data() + j, bytes.size() - j);
      ASSERT_EQ(crc, expect) << "runs split at " << i << " and " << j;
    }
  }
  // Many small writes of uneven sizes, as ckpt::ImageWriter feeds a
  // section's header fields and arrays.
  for (std::size_t period = 1; period <= 17; ++period) {
    std::uint32_t crc = fault::kCrc32cInit;
    std::size_t at = 0;
    for (std::size_t step = 0; at < bytes.size(); ++step) {
      const std::size_t len =
          std::min(1 + step % period, bytes.size() - at);
      crc = fault::crc32c_update(crc, bytes.data() + at, len);
      at += len;
    }
    ASSERT_EQ(crc, expect) << "writes of 1.." << period << " bytes";
  }
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  const std::string data = "the wire frame integrity check of skiptrain";
  const std::uint32_t oneshot = fault::crc32c(data.data(), data.size());
  for (const std::size_t split : {std::size_t{0}, std::size_t{1},
                                  std::size_t{7}, data.size() - 1,
                                  data.size()}) {
    std::uint32_t crc = fault::kCrc32cInit;
    crc = fault::crc32c_update(crc, data.data(), split);
    crc = fault::crc32c_update(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(fault::crc32c_finish(crc), oneshot) << "split at " << split;
  }
}

TEST(Crc32c, DetectsEverySingleBitFlipInASmallBuffer) {
  std::vector<std::uint8_t> buffer(48);
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  const std::uint32_t reference = fault::crc32c(buffer.data(), buffer.size());
  for (std::size_t bit = 0; bit < buffer.size() * 8; ++bit) {
    buffer[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_NE(fault::crc32c(buffer.data(), buffer.size()), reference)
        << "bit " << bit;
    buffer[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
}

// --- fault-plan parsing ----------------------------------------------------

TEST(FaultPlan, EmptyAndNoneDisableEverything) {
  for (const char* spec : {"", "none"}) {
    const fault::FaultPlan plan = fault::make_plan(spec);
    EXPECT_FALSE(plan.enabled) << spec;
    EXPECT_FALSE(plan.link_faults());
    EXPECT_FALSE(plan.crash_faults());
    EXPECT_FALSE(plan.io_faults());
    EXPECT_EQ(plan.config_hash(), 0u);
  }
  EXPECT_EQ(fault::fault_token(""), "none");
  EXPECT_EQ(fault::fault_token("none"), "none");
  EXPECT_EQ(fault::fault_token("drop:0.1"), "drop:0.1");
}

TEST(FaultPlan, FullSpecParsesEveryKnob) {
  const fault::FaultPlan plan = fault::make_plan(
      "drop:0.05,corrupt:0.01,dup:0.02,crash:0.004,crash-rounds:5,"
      "io:0.2,io-retries:7");
  EXPECT_TRUE(plan.enabled);
  EXPECT_DOUBLE_EQ(plan.drop_prob, 0.05);
  EXPECT_DOUBLE_EQ(plan.corrupt_prob, 0.01);
  EXPECT_DOUBLE_EQ(plan.dup_prob, 0.02);
  EXPECT_DOUBLE_EQ(plan.crash_prob, 0.004);
  EXPECT_EQ(plan.crash_rounds, 5u);
  EXPECT_DOUBLE_EQ(plan.io_fail_prob, 0.2);
  EXPECT_EQ(plan.io_retries, 7u);
  EXPECT_TRUE(plan.link_faults());
  EXPECT_TRUE(plan.crash_faults());
  EXPECT_TRUE(plan.io_faults());
  EXPECT_NE(plan.config_hash(), 0u);
  // The hash separates distinct plans (checkpoint identity depends on it).
  EXPECT_NE(plan.config_hash(), fault::make_plan("drop:0.05").config_hash());
}

TEST(FaultPlan, MalformedSpecsThrow) {
  EXPECT_THROW((void)fault::make_plan("flood:0.1"), std::invalid_argument);
  EXPECT_THROW((void)fault::make_plan("drop"), std::invalid_argument);
  EXPECT_THROW((void)fault::make_plan("drop:"), std::invalid_argument);
  EXPECT_THROW((void)fault::make_plan("drop:zebra"), std::invalid_argument);
  EXPECT_THROW((void)fault::make_plan("drop:1.5"), std::invalid_argument);
  EXPECT_THROW((void)fault::make_plan("drop:-0.1"), std::invalid_argument);
  EXPECT_THROW((void)fault::make_plan("crash:0.1,crash-rounds:0"),
               std::invalid_argument);
}

// --- stateless draws -------------------------------------------------------

TEST(FaultDraws, ArePureFunctionsOfTheirCoordinates) {
  const fault::FaultPlan plan =
      fault::make_plan("drop:0.3,corrupt:0.2,dup:0.25,crash:0.1,io:0.4");
  for (std::uint64_t round = 0; round < 16; ++round) {
    for (std::uint64_t src = 0; src < 4; ++src) {
      for (std::uint64_t dst = 0; dst < 4; ++dst) {
        const fault::LinkDraw a = fault::link_draw(plan, 42, round, src, dst);
        const fault::LinkDraw b = fault::link_draw(plan, 42, round, src, dst);
        EXPECT_EQ(a.drop, b.drop);
        EXPECT_EQ(a.corrupt, b.corrupt);
        EXPECT_EQ(a.duplicate, b.duplicate);
      }
    }
  }
  EXPECT_EQ(fault::node_down(plan, 42, 3, 9), fault::node_down(plan, 42, 3, 9));
  EXPECT_EQ(fault::io_attempt_fails(plan, 42, 77, 1),
            fault::io_attempt_fails(plan, 42, 77, 1));
}

TEST(FaultDraws, ExtremeProbabilitiesAreExact) {
  const fault::FaultPlan always = fault::make_plan("drop:1.0,crash:1.0,io:1.0");
  // An all-zero spec fails validate() (it enables nothing), so build the
  // degenerate plan directly to pin the p=0 branch of every draw.
  fault::FaultPlan never;
  never.enabled = true;
  for (std::uint64_t t = 0; t < 8; ++t) {
    EXPECT_TRUE(fault::link_draw(always, 1, t, 0, 1).drop);
    EXPECT_TRUE(fault::node_down(always, 1, 0, t));
    EXPECT_TRUE(fault::io_attempt_fails(always, 1, 5, t));
    const fault::LinkDraw none = fault::link_draw(never, 1, t, 0, 1);
    EXPECT_FALSE(none.drop || none.corrupt || none.duplicate);
    EXPECT_FALSE(fault::node_down(never, 1, 0, t));
    EXPECT_FALSE(fault::io_attempt_fails(never, 1, 5, t));
  }
  // A drop short-circuits the corrupt/dup draws — a lost message cannot
  // also be corrupted or duplicated.
  const fault::FaultPlan all = fault::make_plan("drop:1.0,corrupt:1.0,dup:1.0");
  const fault::LinkDraw draw = fault::link_draw(all, 1, 0, 0, 1);
  EXPECT_TRUE(draw.drop);
  EXPECT_FALSE(draw.corrupt);
  EXPECT_FALSE(draw.duplicate);
}

TEST(FaultDraws, EmpiricalRatesTrackTheConfiguredProbabilities) {
  const fault::FaultPlan plan = fault::make_plan("drop:0.25");
  std::size_t drops = 0;
  const std::size_t trials = 4000;
  for (std::size_t i = 0; i < trials; ++i) {
    if (fault::link_draw(plan, 7, i / 64, i % 8, (i / 8) % 8).drop) ++drops;
  }
  const double rate = static_cast<double>(drops) / trials;
  EXPECT_GT(rate, 0.20);
  EXPECT_LT(rate, 0.30);
}

TEST(FaultDraws, CrashOutagesLastCrashRounds) {
  // With crash_rounds = R, node_down(t) is true iff a crash was drawn at
  // any of rounds t-R+1..t, so outages are contiguous windows of >= R.
  const fault::FaultPlan plan =
      fault::make_plan("crash:0.08,crash-rounds:4");
  std::size_t run_length = 0;
  bool any_outage = false;
  for (std::uint64_t t = 0; t < 400; ++t) {
    if (fault::node_down(plan, 11, 2, t)) {
      ++run_length;
      any_outage = true;
    } else {
      if (run_length != 0) {
        EXPECT_GE(run_length, 4u);
      }
      run_length = 0;
    }
  }
  EXPECT_TRUE(any_outage);
}

// --- wire frames -----------------------------------------------------------

quant::QuantizedRow encoded_row(quant::Codec kind, std::size_t dim,
                                std::uint64_t round = 3) {
  const auto codec = quant::make_codec(kind, 42);
  codec->begin_round(round);
  std::vector<float> row(dim);
  util::Rng rng(9);
  rng.fill_normal(row, 0.0f, 1.0f);
  quant::QuantizedRow wire;
  codec->encode(row, wire);
  return wire;
}

void expect_rows_equal(const quant::QuantizedRow& a,
                       const quant::QuantizedRow& b) {
  EXPECT_EQ(a.codec, b.codec);
  EXPECT_EQ(a.round, b.round);
  EXPECT_EQ(a.dim, b.dim);
  EXPECT_EQ(a.fp32, b.fp32);
  EXPECT_EQ(a.half, b.half);
  EXPECT_EQ(a.codes, b.codes);
  EXPECT_EQ(a.block_lo, b.block_lo);
  EXPECT_EQ(a.block_scale, b.block_scale);
}

TEST(WireFrame, RoundTripsEveryCodecBitExactly) {
  for (const quant::Codec kind : quant::all_codecs()) {
    SCOPED_TRACE(quant::codec_token(kind));
    const quant::QuantizedRow row = encoded_row(kind, 96);
    std::vector<std::uint8_t> frame;
    fault::encode_frame(row, frame);
    EXPECT_TRUE(fault::verify_frame(frame));
    quant::QuantizedRow decoded;
    ASSERT_TRUE(fault::decode_frame(frame, 96, decoded));
    expect_rows_equal(row, decoded);
  }
}

TEST(WireFrame, EverySingleBitFlipIsRejected) {
  // The exhaustive corruption matrix: whichever bit an injected fault
  // flips — header, length, CRC, or payload — the receiver must reject
  // the frame. CRC32C detects all single-bit errors by construction;
  // this pins the implementation (and the header checks) to that math.
  const quant::QuantizedRow row = encoded_row(quant::Codec::kIdentity, 16);
  std::vector<std::uint8_t> frame;
  fault::encode_frame(row, frame);
  ASSERT_TRUE(fault::verify_frame(frame));
  quant::QuantizedRow decoded;
  for (std::uint64_t bit = 0; bit < frame.size() * 8; ++bit) {
    // The in-place check a receiver runs must agree with the flipped copy.
    EXPECT_FALSE(fault::verify_frame(frame, bit)) << "bit " << bit;
    fault::flip_bit(frame, bit);
    EXPECT_FALSE(fault::verify_frame(frame)) << "bit " << bit;
    EXPECT_FALSE(fault::decode_frame(frame, 16, decoded)) << "bit " << bit;
    fault::flip_bit(frame, bit);  // restore
  }
  EXPECT_TRUE(fault::verify_frame(frame));
  EXPECT_TRUE(fault::verify_frame(frame, frame.size() * 8));  // no flip
}

TEST(WireFrame, TruncationsAndGarbageAreRejectedNotThrown) {
  const quant::QuantizedRow row = encoded_row(quant::Codec::kInt8, 64);
  std::vector<std::uint8_t> frame;
  fault::encode_frame(row, frame);
  quant::QuantizedRow decoded;
  for (std::size_t cut = 0; cut < frame.size(); cut += 3) {
    const std::span<const std::uint8_t> prefix(frame.data(), cut);
    EXPECT_FALSE(fault::verify_frame(prefix)) << "cut " << cut;
    EXPECT_FALSE(fault::decode_frame(prefix, 64, decoded)) << "cut " << cut;
  }
  // Trailing garbage after a valid frame.
  std::vector<std::uint8_t> padded = frame;
  padded.push_back(0xab);
  EXPECT_FALSE(fault::verify_frame(padded));
  // A dim beyond the receiver's bound is refused even with a valid CRC.
  EXPECT_FALSE(fault::decode_frame(frame, 63, decoded));
}

TEST(WireFrame, CorruptBitIndexIsInRangeAndSeedDerived) {
  for (std::uint64_t round = 0; round < 8; ++round) {
    const std::uint64_t bit = fault::corrupt_bit_index(42, round, 1, 2, 133);
    EXPECT_LT(bit, 133u * 8u);
    EXPECT_EQ(bit, fault::corrupt_bit_index(42, round, 1, 2, 133));
  }
}

// --- engine integration ----------------------------------------------------

struct Fixture {
  data::FederatedData data;
  nn::Sequential prototype;
  graph::Topology topology;
  graph::MixingMatrix mixing;
  energy::Fleet fleet;

  explicit Fixture(std::size_t nodes, std::size_t degree,
                   std::uint64_t seed = 42)
      : fleet(energy::Fleet::even(nodes, energy::Workload::kCifar10)) {
    data::CifarSynConfig config;
    config.nodes = nodes;
    config.samples_per_node = 12;
    config.test_pool = 40;
    config.seed = seed;
    data = data::make_cifar_synthetic(config);

    prototype = nn::make_mlp(config.feature_dim, {8}, 10);
    util::Rng rng(seed);
    nn::initialize(prototype, rng);

    util::Rng topo_rng(seed + 1);
    topology = graph::make_random_regular(nodes, degree, topo_rng);
    mixing = graph::MixingMatrix::metropolis_hastings(topology);
  }

  energy::EnergyAccountant make_accountant(
      quant::Codec codec = quant::Codec::kIdentity) const {
    std::vector<std::size_t> degrees(fleet.num_nodes());
    for (std::size_t i = 0; i < degrees.size(); ++i) {
      degrees[i] = topology.degree(i);
    }
    return energy::EnergyAccountant(fleet, quant::comm_model_for(codec),
                                    89834, std::move(degrees));
  }

  sim::RoundEngine make_engine(const core::RoundScheduler& scheduler,
                               sim::EngineConfig config = {}) const {
    config.local_steps = 1;
    config.batch_size = 4;
    return sim::RoundEngine(prototype, data, mixing, scheduler,
                            make_accountant(config.exchange_codec), config);
  }
};

bool bytes_equal(plane::ConstMatrixView a, plane::ConstMatrixView b) {
  if (a.rows != b.rows || a.dim != b.dim) return false;
  return std::memcmp(a.flat().data(), b.flat().data(),
                     a.rows * a.dim * sizeof(float)) == 0;
}

void expect_stats_equal(const fault::FaultStats& a,
                        const fault::FaultStats& b) {
  EXPECT_EQ(a.attempted_deliveries, b.attempted_deliveries);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.corrupt, b.corrupt);
  EXPECT_EQ(a.duplicated, b.duplicated);
  EXPECT_EQ(a.crash_down_rounds, b.crash_down_rounds);
}

struct FaultVariant {
  const char* label;
  const char* faults;
  quant::Codec codec;
  std::size_t sparse_k;
};

const FaultVariant kFaultVariants[] = {
    {"dense-identity", "drop:0.1,corrupt:0.05,dup:0.1,crash:0.03",
     quant::Codec::kIdentity, 0},
    {"dense-int8d", "drop:0.1,corrupt:0.05,dup:0.1",
     quant::Codec::kInt8Dithered, 0},
    {"sparse-identity", "drop:0.15,corrupt:0.05", quant::Codec::kIdentity, 5},
    {"sparse-int8", "drop:0.1,dup:0.2,crash:0.05", quant::Codec::kInt8, 7},
};

class FaultedEngine : public ::testing::TestWithParam<FaultVariant> {};

TEST_P(FaultedEngine, SerialAndParallelRunsAreBitIdentical) {
  const FaultVariant variant = GetParam();
  Fixture fixture(8, 3);
  const core::SkipTrainScheduler scheduler(2, 1);
  sim::EngineConfig config;
  config.exchange_codec = variant.codec;
  config.sparse_exchange_k = variant.sparse_k;
  config.faults = fault::make_plan(variant.faults);

  sim::RoundEngine parallel = fixture.make_engine(scheduler, config);
  parallel.run_rounds(6);

  sim::RoundEngine serial = fixture.make_engine(scheduler, config);
  {
    util::ThreadPool::ScopedForceSerial force;
    serial.run_rounds(6);
  }
  EXPECT_TRUE(
      bytes_equal(parallel.node_parameters(), serial.node_parameters()));
  expect_stats_equal(parallel.fault_stats(), serial.fault_stats());
  // The chaos actually fired — an accidentally disabled plan would make
  // this test vacuous.
  EXPECT_GT(parallel.fault_stats().attempted_deliveries, 0u);
  EXPECT_GT(parallel.fault_stats().dropped, 0u);
}

TEST_P(FaultedEngine, KillResumeContinuesBitExactlyWithFaultStats) {
  const FaultVariant variant = GetParam();
  const std::string path = testing::TempDir() + "faulted_kill.sktf";
  Fixture fixture(8, 3);
  const core::SkipTrainScheduler scheduler(2, 1);
  sim::EngineConfig config;
  config.exchange_codec = variant.codec;
  config.sparse_exchange_k = variant.sparse_k;
  config.faults = fault::make_plan(variant.faults);

  sim::RoundEngine reference = fixture.make_engine(scheduler, config);
  reference.run_rounds(8);

  sim::RoundEngine victim = fixture.make_engine(scheduler, config);
  victim.run_rounds(3);
  ckpt::save_fleet_image(victim, path);

  sim::RoundEngine resumed = fixture.make_engine(scheduler, config);
  ckpt::restore_fleet_image(resumed, path);
  expect_stats_equal(victim.fault_stats(), resumed.fault_stats());
  resumed.run_rounds(5);
  EXPECT_TRUE(
      bytes_equal(reference.node_parameters(), resumed.node_parameters()));
  expect_stats_equal(reference.fault_stats(), resumed.fault_stats());
}

INSTANTIATE_TEST_SUITE_P(Variants, FaultedEngine,
                         ::testing::ValuesIn(kFaultVariants));

TEST(FaultedEngine, FaultPlanIsPartOfTheImageIdentity) {
  // An image checkpointed under one fault plan must not restore into an
  // engine running a different plan — the fault schedule is part of the
  // run's configuration.
  const std::string path = testing::TempDir() + "faulted_identity.sktf";
  Fixture fixture(6, 2);
  const core::DpsgdScheduler scheduler;
  sim::EngineConfig faulted;
  faulted.faults = fault::make_plan("drop:0.2");
  sim::RoundEngine source = fixture.make_engine(scheduler, faulted);
  source.run_rounds(2);
  ckpt::save_fleet_image(source, path);

  sim::EngineConfig other;
  other.faults = fault::make_plan("drop:0.3");
  sim::RoundEngine mismatched = fixture.make_engine(scheduler, other);
  EXPECT_THROW(ckpt::restore_fleet_image(mismatched, path),
               std::runtime_error);
  sim::RoundEngine lossless = fixture.make_engine(scheduler);
  EXPECT_THROW(ckpt::restore_fleet_image(lossless, path),
               std::runtime_error);
}

TEST(FaultedEngine, DuplicateDeliveriesAreIdempotent) {
  // dup:1.0 delivers every message twice; an engine that aggregated the
  // second copy would double every neighbor's weight. Compare against a
  // plan whose probabilities are too small to ever fire — both run the
  // framed/difference-form path, so the parameters must match bitwise.
  Fixture fixture(8, 3);
  const core::SkipTrainScheduler scheduler(2, 1);
  sim::EngineConfig dup_config;
  dup_config.faults = fault::make_plan("dup:1.0");
  sim::RoundEngine duplicated = fixture.make_engine(scheduler, dup_config);
  duplicated.run_rounds(6);

  sim::EngineConfig quiet_config;
  quiet_config.faults = fault::make_plan("dup:1e-12");
  sim::RoundEngine quiet = fixture.make_engine(scheduler, quiet_config);
  quiet.run_rounds(6);

  EXPECT_TRUE(
      bytes_equal(duplicated.node_parameters(), quiet.node_parameters()));
  EXPECT_GT(duplicated.fault_stats().duplicated, 0u);
  EXPECT_EQ(duplicated.fault_stats().duplicated,
            duplicated.fault_stats().attempted_deliveries);
  EXPECT_EQ(quiet.fault_stats().duplicated, 0u);
}

TEST(FaultedEngine, TotalLossRevertsEveryNodeToSelf) {
  // drop:1.0 loses every message, and corrupt:1.0 flips a bit in every
  // frame, which each receiver's CRC check must reject: either way all
  // neighbor mass reverts to self, gossip is a no-op and each node trains
  // alone — so the two plans leave identical bytes, for both the dense
  // and the masked sparse exchange.
  Fixture fixture(6, 2);
  const core::DpsgdScheduler scheduler;
  const auto expect_all = [](const fault::FaultStats& stats,
                             std::uint64_t fault::FaultStats::*outcome) {
    EXPECT_GT(stats.attempted_deliveries, 0u);
    EXPECT_EQ(stats.*outcome, stats.attempted_deliveries);
  };
  for (const std::size_t sparse_k : {std::size_t{0}, std::size_t{7}}) {
    SCOPED_TRACE("sparse_k=" + std::to_string(sparse_k));
    sim::EngineConfig config;
    config.sparse_exchange_k = sparse_k;
    config.faults = fault::make_plan("drop:1.0");
    sim::RoundEngine dropped = fixture.make_engine(scheduler, config);
    dropped.run_rounds(4);
    expect_all(dropped.fault_stats(), &fault::FaultStats::dropped);

    config.faults = fault::make_plan("corrupt:1.0");
    sim::RoundEngine corrupted = fixture.make_engine(scheduler, config);
    corrupted.run_rounds(4);
    expect_all(corrupted.fault_stats(), &fault::FaultStats::corrupt);
    EXPECT_EQ(corrupted.fault_stats().attempted_deliveries,
              dropped.fault_stats().attempted_deliveries);
    EXPECT_TRUE(
        bytes_equal(dropped.node_parameters(), corrupted.node_parameters()));
  }
}

/// Changes of the named registry counters across `run` (telemetry on).
template <typename Run>
std::vector<std::uint64_t> counter_deltas(
    std::initializer_list<const char*> names, Run&& run) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const obs::Snapshot before = obs::snapshot();
  run();
  const obs::Snapshot after = obs::snapshot();
  obs::set_enabled(was_enabled);
  std::vector<std::uint64_t> deltas;
  for (const char* name : names) {
    deltas.push_back(after.counter_value(name) - before.counter_value(name));
  }
  return deltas;
}

TEST(FaultedEngine, FaultedDenseRoundRunsTheMixingKernel) {
  // A lossy-link round aggregates through the difference form, which
  // runs inside the one dense kernel: its row counter sees every node.
  Fixture fixture(8, 3);
  const core::DpsgdScheduler scheduler;
  sim::EngineConfig config;
  config.faults = fault::make_plan("drop:0.3");
  sim::RoundEngine engine = fixture.make_engine(scheduler, config);
  const auto deltas =
      counter_deltas({"gossip.rows_mixed"}, [&] { engine.run_round(); });
  EXPECT_GT(engine.fault_stats().dropped, 0u);
  EXPECT_EQ(deltas[0], engine.num_nodes());
}

TEST(FaultedEngine, RegistryCountersMatchFaultStats) {
  // The fault.* registry counters are folded from the same per-round
  // tallies as the checkpointed FaultStats, so over one run they agree.
  Fixture fixture(8, 3);
  const core::SkipTrainScheduler scheduler(2, 1);
  sim::EngineConfig config;
  config.faults = fault::make_plan("drop:0.1,corrupt:0.05,dup:0.1,crash:0.03");
  sim::RoundEngine engine = fixture.make_engine(scheduler, config);
  const auto deltas = counter_deltas(
      {"fault.link.attempted", "fault.link.dropped", "fault.link.corrupt",
       "fault.link.duplicated", "fault.crash_down_rounds"},
      [&] { engine.run_rounds(12); });
  const fault::FaultStats& stats = engine.fault_stats();
  const std::uint64_t expected[] = {stats.attempted_deliveries, stats.dropped,
                                    stats.corrupt, stats.duplicated,
                                    stats.crash_down_rounds};
  for (std::size_t c = 0; c < deltas.size(); ++c) {
    EXPECT_GT(expected[c], 0u) << "counter " << c << " never fired";
    EXPECT_EQ(deltas[c], expected[c]) << "counter " << c;
  }
}

// --- run_experiment + sweep surface ----------------------------------------

sweep::SweepGrid tiny_grid() {
  sweep::SweepGrid grid;
  grid.name = "fault";
  grid.data.nodes = 8;
  grid.data.samples_per_node = 6;
  grid.data.test_pool = 40;
  grid.base.total_rounds = 6;
  grid.base.local_steps = 1;
  grid.base.batch_size = 4;
  grid.base.eval_every = 2;
  grid.base.eval_max_samples = 20;
  grid.base.degree = 2;
  return grid;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(FaultExperiment, NoneSpecMatchesUnsetBitwise) {
  // faults="none" must not perturb a single byte of a fault-free run —
  // the whole layer stays behind the enabled flag.
  sweep::DatasetCache cache;
  const auto workload = cache.get(tiny_grid().data);
  sim::RunOptions options = tiny_grid().base;
  options.algorithm = sim::Algorithm::kSkipTrain;
  options.gamma_train = 1;
  options.gamma_sync = 1;

  const sim::ExperimentResult unset =
      sim::run_experiment(workload->data, workload->prototype, options);
  options.faults = "none";
  const sim::ExperimentResult none =
      sim::run_experiment(workload->data, workload->prototype, options);
  EXPECT_EQ(unset.final_mean_accuracy, none.final_mean_accuracy);
  EXPECT_EQ(unset.final_per_node_accuracy, none.final_per_node_accuracy);
  EXPECT_EQ(none.delivery_rate, 1.0);
  EXPECT_EQ(none.dropped_messages, 0u);
}

TEST(FaultExperiment, FaultTelemetryReachesTheResult) {
  sweep::DatasetCache cache;
  const auto workload = cache.get(tiny_grid().data);
  sim::RunOptions options = tiny_grid().base;
  options.algorithm = sim::Algorithm::kDpsgd;
  options.faults = "drop:0.2,corrupt:0.1,dup:0.1,crash:0.05";
  const sim::ExperimentResult result =
      sim::run_experiment(workload->data, workload->prototype, options);
  EXPECT_GT(result.dropped_messages, 0u);
  EXPECT_GT(result.corrupt_messages, 0u);
  EXPECT_GT(result.duplicated_messages, 0u);
  EXPECT_LT(result.delivery_rate, 1.0);
  EXPECT_GT(result.delivery_rate, 0.0);
}

TEST(FaultSweep, FaultsAxisExpandsTrialsAndGatesCsvColumns) {
  sweep::SweepGrid grid = tiny_grid();
  grid.gamma_trains = {1};
  grid.faults = {"none", "drop:0.2"};
  EXPECT_EQ(grid.trial_count(), 2u);

  sweep::SweepRunner runner({.threads = 1});
  const sweep::SweepReport report = runner.run(grid);
  ASSERT_TRUE(report.all_ok());
  const std::string csv = testing::TempDir() + "fault_sweep.csv";
  report.write_csv(csv);
  const std::string bytes = read_file(csv);
  EXPECT_NE(bytes.find(",faults,"), std::string::npos);
  EXPECT_NE(bytes.find(",delivery_rate,"), std::string::npos);
  EXPECT_NE(bytes.find(",drop:0.2,"), std::string::npos);

  // A faultless grid keeps its pre-existing schema byte-for-byte.
  grid.faults = {"none"};
  const sweep::SweepReport plain = runner.run(grid);
  ASSERT_TRUE(plain.all_ok());
  plain.write_csv(csv);
  const std::string plain_bytes = read_file(csv);
  EXPECT_EQ(plain_bytes.find(",faults,"), std::string::npos);
  EXPECT_EQ(plain_bytes.find(",delivery_rate,"), std::string::npos);
}

// --- IO faults + generation fallback ---------------------------------------

TEST(IoFaults, AtomicWriteRetriesDeterministicallyAndEventuallyThrows) {
  const std::string path = testing::TempDir() + "io_fault_target.bin";
  const auto payload = [](std::ostream& out) { out << "payload"; };

  // io:1.0 — every attempt fails; after io_retries extra attempts the
  // failure propagates. The previous file content must survive.
  ckpt::atomic_write(path, payload);
  const std::string before = read_file(path);
  ckpt::IoFaultPolicy always{fault::make_plan("io:1.0,io-retries:2"), 42};
  EXPECT_THROW(ckpt::atomic_write(path, payload, &always),
               std::runtime_error);
  EXPECT_EQ(read_file(path), before);

  // A fallible-but-not-hopeless plan with generous retries succeeds (the
  // draw stream is seed-derived, so this is deterministic, not flaky).
  ckpt::IoFaultPolicy flaky{fault::make_plan("io:0.5,io-retries:16"), 42};
  ckpt::atomic_write(path, [](std::ostream& out) { out << "second"; },
                     &flaky);
  EXPECT_EQ(read_file(path), "second");
}

TEST(Generations, RotateAndEnumerateAndRemove) {
  const std::string dir = testing::TempDir() + "generations_dir";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/image.sktf";
  const auto write = [&](const std::string& text) {
    std::ofstream(path, std::ios::trunc) << text;
  };

  const std::vector<std::string> candidates =
      ckpt::generation_paths(path, 3);
  ASSERT_EQ(candidates.size(), 3u);
  EXPECT_EQ(candidates[0], path);
  EXPECT_EQ(candidates[1], path + ".g1");
  EXPECT_EQ(candidates[2], path + ".g2");
  // keep = 0 behaves like 1 (the single-image configuration).
  EXPECT_EQ(ckpt::generation_paths(path, 0).size(), 1u);

  // Rotation shifts newest -> .g1 -> .g2; the oldest falls off.
  write("gen-A");
  ckpt::rotate_generations(path, 3);
  write("gen-B");
  ckpt::rotate_generations(path, 3);
  write("gen-C");
  ckpt::rotate_generations(path, 3);
  write("gen-D");
  EXPECT_EQ(read_file(path), "gen-D");
  EXPECT_EQ(read_file(path + ".g1"), "gen-C");
  EXPECT_EQ(read_file(path + ".g2"), "gen-B");
  EXPECT_FALSE(std::filesystem::exists(path + ".g3"));  // gen-A fell off

  // keep <= 1 never creates siblings.
  const std::string single = dir + "/single.sktf";
  std::ofstream(single, std::ios::trunc) << "only";
  ckpt::rotate_generations(single, 1);
  EXPECT_FALSE(std::filesystem::exists(single + ".g1"));

  ckpt::remove_generations(path, 3);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".g1"));
  EXPECT_FALSE(std::filesystem::exists(path + ".g2"));
}

TEST(Generations, ResumeFallsBackPastCorruptImagesByteIdentically) {
  const std::string image = testing::TempDir() + "gen_fallback.sktf";
  ckpt::remove_generations(image, 4);
  sweep::DatasetCache cache;
  const auto workload = cache.get(tiny_grid().data);

  sim::RunOptions options = tiny_grid().base;
  options.algorithm = sim::Algorithm::kSkipTrain;
  options.gamma_train = 1;
  options.gamma_sync = 1;
  options.faults = "drop:0.1";
  options.checkpoint_path = image;
  options.checkpoint_every = 2;
  options.keep_generations = 3;

  const sim::ExperimentResult full =
      sim::run_experiment(workload->data, workload->prototype, options);
  // Rounds = 6, checkpoint_every = 2, final round never written: images
  // at rounds 4 (newest) and 2 (.g1).
  ASSERT_TRUE(std::filesystem::exists(image));
  ASSERT_TRUE(std::filesystem::exists(image + ".g1"));
  EXPECT_EQ(ckpt::probe_fleet_image(image).round, 4u);
  EXPECT_EQ(ckpt::probe_fleet_image(image + ".g1").round, 2u);

  const auto corrupt_file = [](const std::string& path) {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(0, std::ios::end);
    const std::streamoff size = file.tellg();
    file.seekp(size / 2);
    file.write("\xff", 1);
  };

  const auto run_resumed = [&] {
    sim::RunOptions resumed = options;
    resumed.resume = true;
    return sim::run_experiment(workload->data, workload->prototype, resumed);
  };
  const auto expect_matches_full = [&](const sim::ExperimentResult& result) {
    EXPECT_EQ(result.final_mean_accuracy, full.final_mean_accuracy);
    EXPECT_EQ(result.final_per_node_accuracy, full.final_per_node_accuracy);
    EXPECT_EQ(result.dropped_messages, full.dropped_messages);
    EXPECT_EQ(result.recorder.records().size(),
              full.recorder.records().size());
  };

  // Newest corrupt -> falls back to .g1 (round 2), recomputes 4 rounds.
  corrupt_file(image);
  expect_matches_full(run_resumed());

  // Both generations corrupt -> fresh run, same bytes, no exception.
  corrupt_file(image);
  corrupt_file(image + ".g1");
  expect_matches_full(run_resumed());
}

}  // namespace
}  // namespace skiptrain
