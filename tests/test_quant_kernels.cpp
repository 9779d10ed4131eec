// Bit-identity of the vectorized codec kernels against the scalar
// reference paths: exhaustive over all 2^16 halves for fp16 decode (and
// encode of every exactly-representable half value plus directed rounding
// neighborhoods and random bit patterns), fuzzed for the int8 block
// codecs including constant and denormal-heavy rows, and at every ±0 and
// NaN endpoint placement the int8 encoders' 8-lane min/max scan could
// order differently from the seed's sequential scan.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "quant/codec.hpp"
#include "quant/kernels.hpp"
#include "util/rng.hpp"

namespace skiptrain::quant {
namespace {

TEST(Fp16Kernels, DecodeExhaustiveAllHalves) {
  std::vector<std::uint16_t> halves(1u << 16);
  for (std::size_t i = 0; i < halves.size(); ++i) {
    halves[i] = static_cast<std::uint16_t>(i);
  }
  std::vector<float> batch(halves.size()), scalar(halves.size());
  fp16_decode(halves.data(), batch);
  fp16_decode_scalar(halves.data(), scalar);
  for (std::size_t i = 0; i < halves.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(batch[i]),
              std::bit_cast<std::uint32_t>(scalar[i]))
        << "half 0x" << std::hex << halves[i];
  }
}

void expect_encode_matches(const std::vector<float>& values,
                           const char* what) {
  std::vector<std::uint16_t> batch(values.size()), scalar(values.size());
  fp16_encode(values, batch.data());
  fp16_encode_scalar(values, scalar.data());
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(batch[i], scalar[i])
        << what << ": float bits 0x" << std::hex
        << std::bit_cast<std::uint32_t>(values[i]);
  }
  fp16_encode_wire(values, batch.data());
  fp16_encode_wire_scalar(values, scalar.data());
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(batch[i], scalar[i])
        << what << " (wire): float bits 0x" << std::hex
        << std::bit_cast<std::uint32_t>(values[i]);
  }
}

TEST(Fp16Kernels, EncodeEveryHalfValueAndRoundingNeighborhoods) {
  // Every float that is exactly a half value, and its ±1-ulp float
  // neighbors — this walks every rounding boundary region, including
  // subnormals, both zeros, Inf and NaN.
  std::vector<float> values;
  values.reserve(3u << 16);
  for (std::uint32_t h = 0; h < (1u << 16); ++h) {
    const float f = fp16_to_float(static_cast<std::uint16_t>(h));
    values.push_back(f);
    const std::uint32_t bits = std::bit_cast<std::uint32_t>(f);
    values.push_back(std::bit_cast<float>(bits + 1));
    if ((bits & 0x7fffffffu) != 0) {
      values.push_back(std::bit_cast<float>(bits - 1));
    }
  }
  expect_encode_matches(values, "half-neighborhood");
}

TEST(Fp16Kernels, EncodeExactMidpointsRoundToEven) {
  // Exact ties between adjacent halves must round to even mantissas in
  // both paths. Construct midpoints from consecutive normal halves.
  std::vector<float> values;
  for (std::uint32_t h = 0x0400; h < 0x7bff; ++h) {  // positive normals
    const double a = fp16_to_float(static_cast<std::uint16_t>(h));
    const double b = fp16_to_float(static_cast<std::uint16_t>(h + 1));
    values.push_back(static_cast<float>((a + b) / 2.0));
  }
  expect_encode_matches(values, "midpoint");
}

TEST(Fp16Kernels, EncodeRandomBitPatterns) {
  util::Rng rng(99);
  std::vector<float> values(1u << 20);
  for (auto& v : values) {
    v = std::bit_cast<float>(static_cast<std::uint32_t>(rng.next_u64()));
  }
  expect_encode_matches(values, "random-bits");
}

// --- int8 -------------------------------------------------------------------

void expect_int8_matches(const std::vector<float>& row, std::uint64_t stream,
                         const char* what) {
  const std::size_t blocks =
      (row.size() + kInt8BlockValues - 1) / kInt8BlockValues;
  std::vector<std::uint8_t> codes_v(row.size()), codes_s(row.size());
  std::vector<float> lo_v(blocks), lo_s(blocks), sc_v(blocks), sc_s(blocks);

  int8_encode(row, codes_v.data(), lo_v.data(), sc_v.data());
  int8_encode_scalar(row, codes_s.data(), lo_s.data(), sc_s.data());
  ASSERT_EQ(codes_v, codes_s) << what << " nearest codes";
  for (std::size_t b = 0; b < blocks; ++b) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(lo_v[b]),
              std::bit_cast<std::uint32_t>(lo_s[b]))
        << what << " lo block " << b;
    ASSERT_EQ(std::bit_cast<std::uint32_t>(sc_v[b]),
              std::bit_cast<std::uint32_t>(sc_s[b]))
        << what << " scale block " << b;
  }
  std::vector<float> dec_v(row.size()), dec_s(row.size());
  int8_decode(row.size(), codes_v.data(), lo_v.data(), sc_v.data(),
              dec_v.data());
  int8_decode_scalar(row.size(), codes_s.data(), lo_s.data(), sc_s.data(),
                     dec_s.data());
  for (std::size_t i = 0; i < row.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(dec_v[i]),
              std::bit_cast<std::uint32_t>(dec_s[i]))
        << what << " nearest decode at " << i;
  }

  int8_encode_dithered(row, stream, codes_v.data(), lo_v.data(), sc_v.data());
  int8_encode_dithered_scalar(row, stream, codes_s.data(), lo_s.data(),
                              sc_s.data());
  ASSERT_EQ(codes_v, codes_s) << what << " dithered codes";
  int8_decode_dithered(row.size(), codes_v.data(), lo_v.data(), sc_v.data(),
                       stream, dec_v.data());
  int8_decode_dithered_scalar(row.size(), codes_s.data(), lo_s.data(),
                              sc_s.data(), stream, dec_s.data());
  for (std::size_t i = 0; i < row.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(dec_v[i]),
              std::bit_cast<std::uint32_t>(dec_s[i]))
        << what << " dithered decode at " << i;
  }
}

TEST(Int8Kernels, FuzzedRowsMatchScalar) {
  util::Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t dim = 1 + rng.uniform_int(4 * kInt8BlockValues + 3);
    std::vector<float> row(dim);
    rng.fill_normal(row, 0.0f, 2.0f);
    expect_int8_matches(row, dither_stream(42, trial), "fuzz");
  }
}

TEST(Int8Kernels, ConstantAndNearConstantBlocks) {
  std::vector<float> row(kInt8BlockValues * 2 + 5, 3.25f);
  expect_int8_matches(row, dither_stream(1, 1), "constant");
  row.assign(kInt8BlockValues, 0.0f);
  expect_int8_matches(row, dither_stream(1, 2), "zero");
  row.assign(kInt8BlockValues + 1, -7.5f);
  row.back() = -7.5f + 1e-7f;  // scale denormal-small
  expect_int8_matches(row, dither_stream(1, 3), "near-constant");
}

TEST(Int8Kernels, DenormalHeavyRows) {
  util::Rng rng(13);
  std::vector<float> row(3 * kInt8BlockValues);
  const float denorm = std::numeric_limits<float>::denorm_min();
  for (std::size_t i = 0; i < row.size(); ++i) {
    const auto scale = static_cast<float>(rng.uniform_int(2000));
    row[i] = denorm * scale * (rng.uniform() < 0.5 ? -1.0f : 1.0f);
  }
  expect_int8_matches(row, dither_stream(5, 9), "denormal");
  // Mixed denormal + normal magnitudes across one block.
  for (std::size_t i = 0; i < row.size(); i += 3) {
    row[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  expect_int8_matches(row, dither_stream(5, 10), "denormal-mixed");
}

TEST(Int8Kernels, InfiniteRangeAndNaNRowsStayDefinedAndMatchScalar) {
  // A block spanning ±huge overflows hi - lo to Inf (inv = 0), and a NaN
  // element inside an otherwise-finite block must not reach an undefined
  // float->int conversion; on x86 the scalar lroundf clamps all of these
  // to code 0, which the vectorized path replicates.
  std::vector<float> row(kInt8BlockValues, 1.0f);
  row[3] = 3.0e38f;
  row[9] = -3.0e38f;
  expect_int8_matches(row, dither_stream(2, 1), "inf-range");

  util::Rng rng(17);
  rng.fill_normal(row, 0.0f, 1.0f);
  row[kInt8BlockValues / 2] = std::numeric_limits<float>::quiet_NaN();
  expect_int8_matches(row, dither_stream(2, 2), "nan-element");
}

TEST(Int8Kernels, SingleElementAndPartialTrailingBlocks) {
  util::Rng rng(21);
  for (const std::size_t dim :
       {std::size_t{1}, std::size_t{2}, kInt8BlockValues - 1,
        kInt8BlockValues, kInt8BlockValues + 1, 3 * kInt8BlockValues - 1}) {
    std::vector<float> row(dim);
    rng.fill_normal(row, -1.0f, 4.0f);
    expect_int8_matches(row, dither_stream(77, dim), "partial-block");
  }
}

// The batch encoders scan a block's min/max in 8 lanes; only ±0 and NaN
// endpoints can make that order show in the bits, so these rows put them
// at every lane position of full blocks and of trailing partial blocks.
TEST(Int8Kernels, SignedZeroEndpointsInEveryPositionAndOrder) {
  util::Rng rng(31);
  for (const std::size_t tail : {std::size_t{0}, std::size_t{1},
                                 std::size_t{7}, std::size_t{8},
                                 std::size_t{13}, kInt8BlockValues - 1}) {
    // With tail == 0 the zeros sit in a full block; otherwise in a
    // trailing block of `tail` values after one full block.
    const std::size_t n = tail == 0 ? kInt8BlockValues : tail;
    const std::size_t base = tail == 0 ? 0 : kInt8BlockValues;
    std::vector<float> row(base + n);
    for (const float side : {1.0f, -1.0f}) {
      // side > 0: every other value is positive, so ±0 is the block's lo;
      // side < 0: every other value is negative, so ±0 is its hi.
      for (std::size_t p = 0; p < n; ++p) {
        for (std::size_t q = 0; q < n; ++q) {
          if (p == q) continue;
          for (auto& v : row) {
            v = side * (0.25f + static_cast<float>(rng.uniform()));
          }
          row[base + p] = -0.0f;
          row[base + q] = 0.0f;
          expect_int8_matches(row, dither_stream(9, p * n + q),
                              "signed-zero endpoint");
        }
      }
    }
  }
}

TEST(Int8Kernels, BothEndpointsSignedZero) {
  // A block of only ±0: lo and hi are both zeros, scale is 0.
  for (const std::size_t n : {std::size_t{3}, std::size_t{9},
                              kInt8BlockValues}) {
    for (std::size_t p = 0; p < n; ++p) {
      std::vector<float> row(n, 0.0f);
      row[p] = -0.0f;
      expect_int8_matches(row, dither_stream(10, p), "one -0 among +0");
      std::vector<float> neg(n, -0.0f);
      neg[p] = 0.0f;
      expect_int8_matches(neg, dither_stream(11, p), "one +0 among -0");
    }
  }
}

TEST(Int8Kernels, NaNFirstOrMidBlock) {
  util::Rng rng(37);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const std::size_t n : {kInt8BlockValues, std::size_t{11}}) {
    for (std::size_t p = 0; p < n; ++p) {
      std::vector<float> row(kInt8BlockValues + n);
      rng.fill_normal(row, 0.5f, 2.0f);
      // NaN at position p of the first block and of the second, so p = 0
      // is a NaN-first block and every other p a mid-block NaN.
      row[p] = nan;
      row[kInt8BlockValues + p] = nan;
      expect_int8_matches(row, dither_stream(12, p), "nan");
      // A NaN first value followed by ±0 endpoints.
      row[kInt8BlockValues / 2] = -0.0f;
      row[kInt8BlockValues / 2 + 1] = 0.0f;
      expect_int8_matches(row, dither_stream(13, p), "nan and zeros");
    }
  }
}

TEST(Int8Kernels, ConstantAndTwoValuedBlocks) {
  util::Rng rng(41);
  for (const float a : {-2.5f, -0.0f, 0.0f, 1.0f, 3.0e38f}) {
    for (const std::size_t dim :
         {std::size_t{5}, kInt8BlockValues, 2 * kInt8BlockValues + 9}) {
      std::vector<float> row(dim, a);
      expect_int8_matches(row, dither_stream(14, dim), "constant");
      for (const float b : {-1.0f, 0.0f, 0.5f, 1.0e-40f}) {
        for (auto& v : row) v = rng.uniform() < 0.5 ? a : b;
        expect_int8_matches(row, dither_stream(15, dim), "two-valued");
      }
    }
  }
}

TEST(CodecIntegration, RowCodecsUseBitIdenticalKernels) {
  // End-to-end: the RowCodec interface (now on the batch kernels) must
  // reproduce what the scalar reference paths produce.
  util::Rng rng(31);
  std::vector<float> row(2 * kInt8BlockValues + 17);
  rng.fill_normal(row, 0.0f, 1.0f);

  const auto fp16 = make_codec(Codec::kFp16);
  QuantizedRow wire;
  fp16->encode(row, wire);
  std::vector<std::uint16_t> expect_half(row.size());
  fp16_encode_wire_scalar(row, expect_half.data());
  EXPECT_EQ(wire.half, expect_half);
  std::vector<float> decoded(row.size()), expect_dec(row.size());
  fp16->decode(wire, decoded);
  fp16_decode_scalar(wire.half.data(), expect_dec);
  for (std::size_t i = 0; i < row.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(decoded[i]),
              std::bit_cast<std::uint32_t>(expect_dec[i]));
  }

  const auto int8d = make_codec(Codec::kInt8Dithered, 42);
  int8d->begin_round(3);
  int8d->encode(row, wire);
  std::vector<std::uint8_t> expect_codes(row.size());
  std::vector<float> lo(wire.num_blocks()), scale(wire.num_blocks());
  int8_encode_dithered_scalar(row, dither_stream(42, 3), expect_codes.data(),
                              lo.data(), scale.data());
  EXPECT_EQ(wire.codes, expect_codes);
  EXPECT_EQ(wire.round, 3u);
}

}  // namespace
}  // namespace skiptrain::quant
