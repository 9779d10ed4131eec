#include "quant/kernels.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "quant/codec.hpp"
#include "util/isa.hpp"

// The batch kernels are element-wise exact (no reductions, and FP
// contraction is off project-wide), so every ISA clone produces identical
// bits; AVX2 supplies the per-lane variable shifts and rounds the fp16/int8
// bodies vectorize with, while the default clone keeps baseline machines
// working.

namespace skiptrain::quant {

namespace {

/// Branch-free fp16_from_float over the raw float bits: every path is
/// computed with shift amounts clamped into defined range, then selected
/// with ternaries the vectorizer can if-convert. Bitwise identical to the
/// scalar conversion (enforced exhaustively in tests).
inline std::uint16_t fp16_bits_rne(std::uint32_t bits) {
  const std::uint32_t sign = (bits >> 16) & 0x8000u;
  const std::uint32_t abs = bits & 0x7fffffffu;
  const std::uint32_t exp = abs >> 23;
  const std::uint32_t mant = abs & 0x7fffffu;
  // Normal half (113 <= exp < 143); rounding may carry into the exponent
  // field — including into Inf at the top of the range.
  std::uint32_t half_n = ((exp - 112u) << 10) | (mant >> 13);
  const std::uint32_t rem_n = mant & 0x1fffu;
  half_n += static_cast<std::uint32_t>(rem_n > 0x1000u ||
                                       (rem_n == 0x1000u && (half_n & 1u)));
  // Subnormal half (102 <= exp < 113): shift the full 24-bit significand
  // into 10 bits with round-to-nearest-even. The clamp keeps the shift
  // defined on the paths the select discards.
  const std::uint32_t significand = mant | 0x800000u;
  const std::uint32_t shift = std::clamp(126u - exp, 1u, 31u);
  const std::uint32_t half_bit = 1u << (shift - 1u);
  std::uint32_t half_s = significand >> shift;
  const std::uint32_t rem_s = significand & ((1u << shift) - 1u);
  half_s += static_cast<std::uint32_t>(rem_s > half_bit ||
                                       (rem_s == half_bit && (half_s & 1u)));
  const std::uint32_t infnan = abs > 0x7f800000u ? 0x7e00u : 0x7c00u;
  const std::uint32_t half = exp >= 143u  ? infnan
                             : exp >= 113u ? half_n
                             : exp >= 102u ? half_s
                                           : 0u;
  return static_cast<std::uint16_t>(sign | half);
}

inline std::uint16_t fp16_bits_wire(std::uint32_t bits) {
  const std::uint16_t half = fp16_bits_rne(bits);
  return (half & 0x7fffu) == 0x7c00u
             ? static_cast<std::uint16_t>((half & 0x8000u) | 0x7bffu)
             : half;
}

/// Branch-free fp16_to_float: subnormals widen exactly via an integer →
/// float convert scaled by 2^-24 (mant/2^24 is the subnormal's value and
/// is exactly representable in binary32).
inline float fp16_bits_to_float(std::uint16_t h) {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1fu;
  const std::uint32_t mant = h & 0x3ffu;
  const std::uint32_t norm = sign | ((exp + 112u) << 23) | (mant << 13);
  const std::uint32_t infnan = sign | 0x7f800000u | (mant << 13);
  const std::uint32_t sub =
      sign |
      std::bit_cast<std::uint32_t>(static_cast<float>(mant) * 0x1.0p-24f);
  const std::uint32_t out = exp == 31u ? infnan : exp != 0u ? norm : sub;
  return std::bit_cast<float>(out);
}

inline float dither_uniform_at(std::uint64_t stream,
                               std::uint64_t coordinate) {
  std::uint64_t z = stream + coordinate * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<float>(z >> 40) * 0x1.0p-24f;
}

/// Shared int8 block skeleton. The min/max scan keeps the seed's
/// sequential order (so ±0 ties select the same bits); only the quantize
/// loop differs per variant and is what `Quantize` vectorizes.
template <typename Quantize>
[[gnu::always_inline]] inline void int8_encode_blocks(
    std::span<const float> row, std::uint8_t* codes, float* lo_out,
    float* scale_out, Quantize&& quantize) {
  const std::size_t blocks =
      (row.size() + kInt8BlockValues - 1) / kInt8BlockValues;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t begin = b * kInt8BlockValues;
    const std::size_t end = std::min(begin + kInt8BlockValues, row.size());
    float lo = row[begin];
    float hi = row[begin];
    for (std::size_t i = begin + 1; i < end; ++i) {
      lo = std::min(lo, row[i]);
      hi = std::max(hi, row[i]);
    }
    const float scale = (hi - lo) / 255.0f;
    lo_out[b] = lo;
    scale_out[b] = scale;
    if (scale <= 0.0f) {
      std::fill(codes + begin, codes + end, std::uint8_t{0});
      continue;
    }
    const float inv_scale = 1.0f / scale;
    quantize(begin, end, lo, inv_scale);
  }
}

}  // namespace

// --- dither stream ----------------------------------------------------------

std::uint64_t dither_stream(std::uint64_t seed, std::size_t round) {
  // SplitMix64 over (seed ^ round-tag): cheap, and the per-coordinate Weyl
  // walk above decorrelates rounds with nearby ids.
  std::uint64_t z = seed ^ (0xd1770000ULL + round);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

float dither_uniform(std::uint64_t stream, std::uint64_t coordinate) {
  return dither_uniform_at(stream, coordinate);
}

// --- fp16 -------------------------------------------------------------------

std::uint16_t fp16_wire_from_float(float value) {
  const std::uint16_t half = fp16_from_float(value);
  if ((half & 0x7fffu) == 0x7c00u) {  // ±Inf
    return static_cast<std::uint16_t>((half & 0x8000u) | 0x7bffu);
  }
  return half;
}

SKIPTRAIN_CODEC_CLONES
void fp16_encode(std::span<const float> src, std::uint16_t* dst) {
  const float* __restrict__ in = src.data();
  std::uint16_t* __restrict__ out = dst;
  const std::size_t n = src.size();
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = fp16_bits_rne(std::bit_cast<std::uint32_t>(in[i]));
  }
}

SKIPTRAIN_CODEC_CLONES
void fp16_encode_wire(std::span<const float> src, std::uint16_t* dst) {
  const float* __restrict__ in = src.data();
  std::uint16_t* __restrict__ out = dst;
  const std::size_t n = src.size();
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = fp16_bits_wire(std::bit_cast<std::uint32_t>(in[i]));
  }
}

SKIPTRAIN_CODEC_CLONES
void fp16_decode(const std::uint16_t* src, std::span<float> dst) {
  const std::uint16_t* __restrict__ in = src;
  float* __restrict__ out = dst.data();
  const std::size_t n = dst.size();
  for (std::size_t i = 0; i < n; ++i) out[i] = fp16_bits_to_float(in[i]);
}

void fp16_encode_scalar(std::span<const float> src, std::uint16_t* dst) {
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] = fp16_from_float(src[i]);
}

void fp16_encode_wire_scalar(std::span<const float> src, std::uint16_t* dst) {
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i] = fp16_wire_from_float(src[i]);
  }
}

void fp16_decode_scalar(const std::uint16_t* src, std::span<float> dst) {
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = fp16_to_float(src[i]);
}

// --- int8 -------------------------------------------------------------------

SKIPTRAIN_CODEC_CLONES
void int8_encode(std::span<const float> row, std::uint8_t* codes, float* lo,
                 float* scale) {
  const float* __restrict__ in = row.data();
  std::uint8_t* __restrict__ out = codes;
  int8_encode_blocks(
      row, codes, lo, scale,
      [in, out](std::size_t begin, std::size_t end, float blo, float inv) {
        if (!(inv > 0.0f) || inv > std::numeric_limits<float>::max()) {
          // Degenerate block range: a denormal-small scale gave inv = Inf,
          // an infinite range (hi - lo overflow) gave inv = 0, or a NaN
          // endpoint gave inv = NaN. In all three the reference's
          // lroundf(±Inf / NaN / ±0) clamps to code 0 for the whole block
          // (via the x86 saturating float→long conversion). Replicate
          // that bitwise.
          std::fill(out + begin, out + end, std::uint8_t{0});
          return;
        }
        for (std::size_t i = begin; i < end; ++i) {
          const float t = (in[i] - blo) * inv;
          // Positive half-away-from-zero, branch-free: bitwise equal to
          // the reference's lroundf (t >= 0 by construction — and with a
          // finite inv, t stays far below 2^31 — and t - floor(t) is
          // exact for these magnitudes). The int32 intermediate is what
          // lets the conversion-to-code vectorize; the NaN select (an
          // element of a poisoned row whose block endpoints are finite)
          // keeps the conversion in defined range and lands on code 0,
          // the reference's clamped result.
          const float r = std::floor(t);
          const float rc = (t == t) ? std::min(r, 255.0f) : 0.0f;
          const int q = static_cast<int>(rc) + ((t - r >= 0.5f) ? 1 : 0);
          out[i] = static_cast<std::uint8_t>(std::min(q, 255));
        }
      });
}

SKIPTRAIN_CODEC_CLONES
void int8_encode_dithered(std::span<const float> row, std::uint64_t stream,
                          std::uint8_t* codes, float* lo, float* scale) {
  const float* __restrict__ in = row.data();
  std::uint8_t* __restrict__ out = codes;
  int8_encode_blocks(
      row, codes, lo, scale,
      [in, out, stream](std::size_t begin, std::size_t end, float blo,
                        float inv) {
        for (std::size_t i = begin; i < end; ++i) {
          const float t = (in[i] - blo) * inv;
          const float u = dither_uniform_at(stream, i);
          out[i] = static_cast<std::uint8_t>(
              std::min(255.0f, std::max(0.0f, std::floor(t + u))));
        }
      });
}

SKIPTRAIN_CODEC_CLONES
void int8_decode(std::size_t dim, const std::uint8_t* codes, const float* lo,
                 const float* scale, float* out_ptr) {
  const std::uint8_t* __restrict__ in = codes;
  float* __restrict__ out = out_ptr;
  const std::size_t blocks = (dim + kInt8BlockValues - 1) / kInt8BlockValues;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t begin = b * kInt8BlockValues;
    const std::size_t end = std::min(begin + kInt8BlockValues, dim);
    const float blo = lo[b];
    const float bscale = scale[b];
    for (std::size_t i = begin; i < end; ++i) {
      out[i] = blo + bscale * static_cast<float>(in[i]);
    }
  }
}

SKIPTRAIN_CODEC_CLONES
void int8_decode_dithered(std::size_t dim, const std::uint8_t* codes,
                          const float* lo, const float* scale,
                          std::uint64_t stream, float* out_ptr) {
  const std::uint8_t* __restrict__ in = codes;
  float* __restrict__ out = out_ptr;
  const std::size_t blocks = (dim + kInt8BlockValues - 1) / kInt8BlockValues;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t begin = b * kInt8BlockValues;
    const std::size_t end = std::min(begin + kInt8BlockValues, dim);
    const float blo = lo[b];
    const float bscale = scale[b];
    for (std::size_t i = begin; i < end; ++i) {
      const float u = dither_uniform_at(stream, i);
      out[i] = blo + bscale * (static_cast<float>(in[i]) + 0.5f - u);
    }
  }
}

// --- scalar int8 references (the seed per-element code, verbatim) -----------

void int8_encode_scalar(std::span<const float> row, std::uint8_t* codes,
                        float* lo, float* scale) {
  int8_encode_blocks(
      row, codes, lo, scale,
      [&row, codes](std::size_t begin, std::size_t end, float blo, float inv) {
        for (std::size_t i = begin; i < end; ++i) {
          const float t = (row[i] - blo) * inv;
          codes[i] = static_cast<std::uint8_t>(
              std::min(255L, std::max(0L, std::lroundf(t))));
        }
      });
}

void int8_encode_dithered_scalar(std::span<const float> row,
                                 std::uint64_t stream, std::uint8_t* codes,
                                 float* lo, float* scale) {
  int8_encode_blocks(
      row, codes, lo, scale,
      [&row, codes, stream](std::size_t begin, std::size_t end, float blo,
                            float inv) {
        for (std::size_t i = begin; i < end; ++i) {
          const float t = (row[i] - blo) * inv;
          const float u = dither_uniform(stream, i);
          codes[i] = static_cast<std::uint8_t>(
              std::min(255.0f, std::max(0.0f, std::floor(t + u))));
        }
      });
}

void int8_decode_scalar(std::size_t dim, const std::uint8_t* codes,
                        const float* lo, const float* scale, float* out) {
  const std::size_t blocks = (dim + kInt8BlockValues - 1) / kInt8BlockValues;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t begin = b * kInt8BlockValues;
    const std::size_t end = std::min(begin + kInt8BlockValues, dim);
    for (std::size_t i = begin; i < end; ++i) {
      out[i] = lo[b] + scale[b] * static_cast<float>(codes[i]);
    }
  }
}

void int8_decode_dithered_scalar(std::size_t dim, const std::uint8_t* codes,
                                 const float* lo, const float* scale,
                                 std::uint64_t stream, float* out) {
  const std::size_t blocks = (dim + kInt8BlockValues - 1) / kInt8BlockValues;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t begin = b * kInt8BlockValues;
    const std::size_t end = std::min(begin + kInt8BlockValues, dim);
    for (std::size_t i = begin; i < end; ++i) {
      const float u = dither_uniform(stream, i);
      out[i] = lo[b] + scale[b] * (static_cast<float>(codes[i]) + 0.5f - u);
    }
  }
}

}  // namespace skiptrain::quant
