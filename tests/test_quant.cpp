#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/scheduler.hpp"
#include "data/synthetic.hpp"
#include "energy/accountant.hpp"
#include "graph/mixing.hpp"
#include "graph/topology.hpp"
#include "nn/init.hpp"
#include "nn/model_zoo.hpp"
#include "quant/codec.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace skiptrain::quant {
namespace {

// --- names / wire math ------------------------------------------------------

TEST(Codec, TokensRoundTripThroughParse) {
  for (const Codec codec : all_codecs()) {
    EXPECT_EQ(parse_codec(codec_token(codec)), codec);
  }
  EXPECT_EQ(parse_codec("fp32"), Codec::kIdentity);   // display alias
  EXPECT_EQ(parse_codec("int8d"), Codec::kInt8Dithered);
  EXPECT_THROW((void)parse_codec("int4"), std::invalid_argument);
}

TEST(Codec, WireBytesPerParam) {
  EXPECT_DOUBLE_EQ(wire_bytes_per_param(Codec::kIdentity), 4.0);
  EXPECT_DOUBLE_EQ(wire_bytes_per_param(Codec::kFp16), 2.0);
  EXPECT_DOUBLE_EQ(wire_bytes_per_param(Codec::kInt8), 1.125);
  EXPECT_DOUBLE_EQ(wire_bytes_per_param(Codec::kInt8Dithered), 1.125);
}

TEST(Codec, QuantizedRowWireBytesAreExact) {
  std::vector<float> row(130, 0.5f);
  row[7] = -3.0f;  // non-constant so scales are exercised

  QuantizedRow wire;
  make_codec(Codec::kIdentity)->encode(row, wire);
  EXPECT_EQ(wire.wire_bytes(), 130u * 4u);
  make_codec(Codec::kFp16)->encode(row, wire);
  EXPECT_EQ(wire.wire_bytes(), 130u * 2u);
  // 130 values -> 3 blocks of <=64, each with an 8-byte (lo, scale) header.
  make_codec(Codec::kInt8)->encode(row, wire);
  EXPECT_EQ(wire.wire_bytes(), 130u + 3u * 8u);
}

TEST(Codec, CommModelForDerivesBytesPerParam) {
  EXPECT_DOUBLE_EQ(comm_model_for(Codec::kIdentity).bytes_per_param, 4.0);
  EXPECT_DOUBLE_EQ(comm_model_for(Codec::kFp16).bytes_per_param, 2.0);
  EXPECT_DOUBLE_EQ(comm_model_for(Codec::kInt8).bytes_per_param, 1.125);
  // Other knobs of the base model survive.
  energy::CommModel base;
  base.mwh_per_megabyte = 99.0;
  EXPECT_DOUBLE_EQ(comm_model_for(Codec::kFp16, base).mwh_per_megabyte, 99.0);
}

// --- fp16 scalar conversions ------------------------------------------------

TEST(Fp16, EveryFiniteHalfRoundTripsExactly) {
  // Exhaustive: decode every non-NaN half pattern and re-encode it.
  for (std::uint32_t h = 0; h <= 0xffffu; ++h) {
    const auto half = static_cast<std::uint16_t>(h);
    const bool is_nan = (half & 0x7c00u) == 0x7c00u && (half & 0x3ffu) != 0;
    if (is_nan) continue;
    const float value = fp16_to_float(half);
    EXPECT_EQ(fp16_from_float(value), half) << "half pattern " << h;
  }
}

TEST(Fp16, SpecialValues) {
  EXPECT_EQ(fp16_from_float(0.0f), 0x0000u);
  EXPECT_EQ(fp16_from_float(-0.0f), 0x8000u);
  EXPECT_EQ(fp16_from_float(1.0f), 0x3c00u);
  EXPECT_EQ(fp16_from_float(65504.0f), 0x7bffu);   // largest finite half
  EXPECT_EQ(fp16_from_float(65520.0f), 0x7c00u);   // rounds to +Inf
  EXPECT_EQ(fp16_from_float(1.0e9f), 0x7c00u);     // overflow -> +Inf
  EXPECT_EQ(fp16_from_float(-1.0e9f), 0xfc00u);
  EXPECT_EQ(fp16_from_float(1.0e-9f), 0x0000u);    // underflow -> 0
  const float nan = fp16_to_float(
      fp16_from_float(std::numeric_limits<float>::quiet_NaN()));
  EXPECT_TRUE(std::isnan(nan));
}

TEST(Fp16, FuzzErrorWithinHalfUlp) {
  util::Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    const auto value = static_cast<float>(rng.normal(0.0, 10.0));
    if (std::abs(value) < 6.2e-5f) continue;  // below the normal-half range
    const float decoded = fp16_to_float(fp16_from_float(value));
    // RNE error <= ulp/2 = 2^(ilogb(value) - 11) for normal halves.
    const float bound = std::ldexp(1.0f, std::ilogb(value) - 11);
    EXPECT_LE(std::abs(decoded - value), bound) << "value " << value;
  }
}

// --- int8 codecs ------------------------------------------------------------

/// Per-block quantization step of `row` at block b (mirrors the codec).
float block_scale_of(std::span<const float> row, std::size_t b) {
  const std::size_t begin = b * kInt8BlockValues;
  const std::size_t end = std::min(begin + kInt8BlockValues, row.size());
  float lo = row[begin], hi = row[begin];
  for (std::size_t i = begin; i < end; ++i) {
    lo = std::min(lo, row[i]);
    hi = std::max(hi, row[i]);
  }
  return (hi - lo) / 255.0f;
}

class Int8ErrorBound : public ::testing::TestWithParam<Codec> {};

TEST_P(Int8ErrorBound, FuzzWithinHalfScalePerBlock) {
  const auto codec = make_codec(GetParam(), /*seed=*/7);
  codec->begin_round(3);
  util::Rng rng(12);
  for (const std::size_t dim : {1UL, 3UL, 64UL, 130UL, 1000UL}) {
    std::vector<float> row(dim);
    rng.fill_normal(row, 0.0f, 2.0f);
    QuantizedRow wire;
    codec->encode(row, wire);
    std::vector<float> decoded(dim);
    codec->decode(wire, decoded);
    for (std::size_t i = 0; i < dim; ++i) {
      const float scale = block_scale_of(row, i / kInt8BlockValues);
      EXPECT_LE(std::abs(decoded[i] - row[i]), 0.5f * scale + 1e-5f)
          << "dim " << dim << " coord " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothVariants, Int8ErrorBound,
                         ::testing::Values(Codec::kInt8,
                                           Codec::kInt8Dithered));

TEST(Int8, ConstantBlockDecodesExactly) {
  const std::vector<float> row(70, 1.25f);
  for (const Codec kind : {Codec::kInt8, Codec::kInt8Dithered}) {
    const auto codec = make_codec(kind, 1);
    QuantizedRow wire;
    codec->encode(row, wire);
    std::vector<float> decoded(row.size());
    codec->decode(wire, decoded);
    for (const float v : decoded) EXPECT_EQ(v, 1.25f);
  }
}

TEST(Int8Dithered, RoundSharedDecodeIsIdenticalAcrossInstances) {
  std::vector<float> row(200);
  util::Rng rng(13);
  rng.fill_normal(row, 0.0f, 1.0f);

  const auto sender = make_codec(Codec::kInt8Dithered, /*seed=*/42);
  sender->begin_round(5);
  QuantizedRow wire;
  sender->encode(row, wire);

  // Receivers share the seed but have NOT seen begin_round(5): decode
  // reads the round id from the payload, so everyone reconstructs the
  // identical dither stream.
  const auto receiver = make_codec(Codec::kInt8Dithered, /*seed=*/42);
  std::vector<float> a(row.size()), b(row.size());
  sender->decode(wire, a);
  receiver->decode(wire, b);
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)));
}

TEST(Int8Dithered, DitherVariesByRound) {
  std::vector<float> row(256);
  util::Rng rng(14);
  rng.fill_normal(row, 0.0f, 1.0f);
  const auto codec = make_codec(Codec::kInt8Dithered, 42);
  QuantizedRow r1, r2;
  codec->begin_round(1);
  codec->encode(row, r1);
  codec->begin_round(2);
  codec->encode(row, r2);
  EXPECT_NE(r1.codes, r2.codes);  // same row, different dither stream
}

TEST(Fp16Codec, WireSaturatesInsteadOfShippingInf) {
  // A finite parameter beyond the half range (or a genuine Inf) must not
  // reach the wire as Inf: the dense engine's exact-self correction would
  // compute Inf - Inf = NaN and poison the fleet. The wire saturates to
  // ±65504; NaN (an already-broken run) is preserved.
  const auto codec = make_codec(Codec::kFp16);
  const std::vector<float> row = {1.0e9f, -1.0e9f, 70000.0f,
                                  std::numeric_limits<float>::infinity(),
                                  -std::numeric_limits<float>::infinity(),
                                  1.0f};
  QuantizedRow wire;
  codec->encode(row, wire);
  std::vector<float> decoded(row.size());
  codec->decode(wire, decoded);
  EXPECT_EQ(decoded[0], 65504.0f);
  EXPECT_EQ(decoded[1], -65504.0f);
  EXPECT_EQ(decoded[2], 65504.0f);
  EXPECT_EQ(decoded[3], 65504.0f);
  EXPECT_EQ(decoded[4], -65504.0f);
  EXPECT_EQ(decoded[5], 1.0f);
  // The scalar conversion keeps IEEE overflow-to-Inf semantics; only the
  // wire path saturates.
  EXPECT_EQ(fp16_from_float(1.0e9f), 0x7c00u);
}

TEST(Codec, IdentityRoundTripsBitwise) {
  std::vector<float> row(333);
  util::Rng rng(15);
  rng.fill_normal(row, 0.0f, 3.0f);
  const auto codec = make_codec(Codec::kIdentity);
  QuantizedRow wire;
  codec->encode(row, wire);
  std::vector<float> decoded(row.size());
  codec->decode(wire, decoded);
  EXPECT_EQ(0,
            std::memcmp(row.data(), decoded.data(), row.size() * sizeof(float)));
}

TEST(Codec, DecodeValidatesPayload) {
  const auto fp16 = make_codec(Codec::kFp16);
  QuantizedRow wire;
  fp16->encode(std::vector<float>(8, 1.0f), wire);
  std::vector<float> out(8);
  EXPECT_THROW(make_codec(Codec::kInt8)->decode(wire, out),
               std::invalid_argument);
  std::vector<float> wrong_dim(9);
  EXPECT_THROW(fp16->decode(wire, wrong_dim), std::invalid_argument);
}

TEST(Codec, EncodeDecodeIsThreadCountInvariant) {
  // The per-row fan-out the engine runs must be bit-identical whether it
  // executes serially or on the pool.
  constexpr std::size_t kRows = 16, kDim = 1000;
  std::vector<std::vector<float>> rows(kRows, std::vector<float>(kDim));
  util::Rng rng(16);
  for (auto& row : rows) rng.fill_normal(row, 0.0f, 1.0f);

  const auto run = [&](bool serial) {
    const auto codec = make_codec(Codec::kInt8Dithered, 42);
    codec->begin_round(9);
    std::vector<std::vector<float>> decoded(kRows,
                                            std::vector<float>(kDim));
    const auto work = [&](std::size_t i) {
      QuantizedRow wire;
      codec->encode(rows[i], wire);
      codec->decode(wire, decoded[i]);
    };
    if (serial) {
      util::ThreadPool::ScopedForceSerial force;
      util::parallel_for(0, kRows, work);
    } else {
      util::parallel_for(0, kRows, work);
    }
    return decoded;
  };

  const auto serial = run(true);
  const auto parallel = run(false);
  for (std::size_t i = 0; i < kRows; ++i) {
    EXPECT_EQ(0, std::memcmp(serial[i].data(), parallel[i].data(),
                             kDim * sizeof(float)))
        << "row " << i;
  }
}

// --- engine integration -----------------------------------------------------

struct QuantFixture {
  data::FederatedData data;
  nn::Sequential prototype;
  graph::Topology topology;
  graph::MixingMatrix mixing;
  energy::Fleet fleet;

  QuantFixture() : fleet(energy::Fleet::even(8, energy::Workload::kCifar10)) {
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

  sim::RoundEngine make_engine(const core::RoundScheduler& scheduler,
                               Codec codec, std::size_t sparse_k = 0) {
    std::vector<std::size_t> degrees(8, 4);
    energy::EnergyAccountant accountant(fleet, comm_model_for(codec), 89834,
                                        std::move(degrees));
    sim::EngineConfig config;
    config.local_steps = 2;
    config.batch_size = 8;
    config.sparse_exchange_k = sparse_k;
    config.exchange_codec = codec;
    return sim::RoundEngine(prototype, data, mixing, scheduler,
                            std::move(accountant), config);
  }
};

TEST(QuantEngine, IdentityCodecIsBitIdenticalToDensePath) {
  QuantFixture fixture;
  const core::DpsgdScheduler scheduler;
  // Default-constructed config (the pre-quantization configuration) must
  // equal an explicit identity selection bit-for-bit...
  std::vector<std::size_t> degrees(8, 4);
  energy::EnergyAccountant accountant(fixture.fleet, energy::CommModel{},
                                      89834, std::move(degrees));
  sim::EngineConfig default_config;
  default_config.local_steps = 2;
  default_config.batch_size = 8;
  sim::RoundEngine baseline(fixture.prototype, fixture.data, fixture.mixing,
                            scheduler, std::move(accountant), default_config);
  auto explicit_identity = fixture.make_engine(scheduler, Codec::kIdentity);
  baseline.run_rounds(3);
  explicit_identity.run_rounds(3);
  const auto a = baseline.node_parameters();
  const auto b = explicit_identity.node_parameters();
  EXPECT_EQ(0, std::memcmp(a.flat().data(), b.flat().data(),
                           a.rows * a.dim * sizeof(float)));

  // ...and a non-identity codec must actually take the staging path:
  // fp16 rounding perturbs the aggregation, so the planes differ.
  auto fp16 = fixture.make_engine(scheduler, Codec::kFp16);
  fp16.run_rounds(3);
  const auto c = fp16.node_parameters();
  EXPECT_NE(0, std::memcmp(a.flat().data(), c.flat().data(),
                           a.rows * a.dim * sizeof(float)));
}

TEST(QuantEngine, Fp16ExchangeTracksDenseClosely) {
  QuantFixture fixture;
  const core::DpsgdScheduler scheduler;
  auto dense = fixture.make_engine(scheduler, Codec::kIdentity);
  auto fp16 = fixture.make_engine(scheduler, Codec::kFp16);
  dense.run_rounds(4);
  fp16.run_rounds(4);
  for (std::size_t i = 0; i < 8; ++i) {
    const auto a = dense.node_parameters()[i];
    const auto b = fp16.node_parameters()[i];
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_NEAR(a[k], b[k], 2e-2f) << "node " << i << " coord " << k;
    }
  }
}

TEST(QuantEngine, Int8SyncRoundsStillContract) {
  QuantFixture fixture;
  // Sync-only via Greedy with zero budgets: every round is pure gossip.
  const core::GreedyScheduler scheduler;
  std::vector<std::size_t> degrees(8, 4);
  energy::EnergyAccountant accountant(
      fixture.fleet, comm_model_for(Codec::kInt8Dithered), 89834,
      std::move(degrees));
  accountant.set_budgets(std::vector<std::size_t>(8, 0));
  sim::EngineConfig config;
  config.exchange_codec = Codec::kInt8Dithered;
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
    const auto reference = engine.node_parameters()[0];
    for (std::size_t i = 1; i < 8; ++i) {
      const auto params = engine.node_parameters()[i];
      for (std::size_t k = 0; k < params.size(); ++k) {
        total += std::abs(params[k] - reference[k]);
      }
    }
    return total;
  };
  const double before = spread();
  engine.run_rounds(12);
  EXPECT_LT(spread(), before * 0.5);
}

TEST(QuantEngine, CommEnergyScalesWithCodecBytes) {
  QuantFixture fixture;
  const core::DpsgdScheduler scheduler;
  auto dense = fixture.make_engine(scheduler, Codec::kIdentity);
  auto fp16 = fixture.make_engine(scheduler, Codec::kFp16);
  auto int8 = fixture.make_engine(scheduler, Codec::kInt8);
  dense.run_rounds(3);
  fp16.run_rounds(3);
  int8.run_rounds(3);
  const double dense_wh = dense.accountant().total_comm_wh();
  // Halving is a power-of-two rescale, so fp16 matches exactly; the int8
  // ratio 9/32 is compared to within rounding.
  EXPECT_DOUBLE_EQ(fp16.accountant().total_comm_wh(), dense_wh * 2.0 / 4.0);
  EXPECT_NEAR(int8.accountant().total_comm_wh(), dense_wh * 1.125 / 4.0,
              dense_wh * 1e-12);
  // Training energy is untouched by the wire format.
  EXPECT_DOUBLE_EQ(fp16.accountant().total_training_wh(),
                   dense.accountant().total_training_wh());
}

TEST(QuantEngine, SparseQuantCompositionMultipliesSavings) {
  QuantFixture fixture;
  const core::DpsgdScheduler scheduler;
  const std::size_t dim = fixture.prototype.num_parameters();
  auto dense = fixture.make_engine(scheduler, Codec::kIdentity);
  auto composed =
      fixture.make_engine(scheduler, Codec::kInt8Dithered, dim / 10);
  dense.run_rounds(3);
  composed.run_rounds(3);
  const double ratio = composed.accountant().total_comm_wh() /
                       dense.accountant().total_comm_wh();
  // ~10% of the coordinates at ~28% of the bytes each.
  EXPECT_NEAR(ratio, 0.1 * 1.125 / 4.0, 0.005);
}

TEST(QuantEngine, MaskedInt8ExchangeStillContracts) {
  QuantFixture fixture;
  const core::GreedyScheduler scheduler;
  std::vector<std::size_t> degrees(8, 4);
  energy::EnergyAccountant accountant(
      fixture.fleet, comm_model_for(Codec::kInt8), 89834, std::move(degrees));
  accountant.set_budgets(std::vector<std::size_t>(8, 0));
  sim::EngineConfig config;
  config.exchange_codec = Codec::kInt8;
  config.sparse_exchange_k = fixture.prototype.num_parameters() / 4;
  sim::RoundEngine engine(fixture.prototype, fixture.data, fixture.mixing,
                          scheduler, std::move(accountant), config);
  util::Rng rng(6);
  for (std::size_t i = 0; i < 8; ++i) {
    std::vector<float> params(fixture.prototype.num_parameters());
    rng.fill_normal(params, 0.0f, 1.0f);
    engine.model(i).set_parameters(params);
  }
  const auto spread = [&] {
    double total = 0.0;
    const auto reference = engine.node_parameters()[0];
    for (std::size_t i = 1; i < 8; ++i) {
      const auto params = engine.node_parameters()[i];
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
}  // namespace skiptrain::quant
