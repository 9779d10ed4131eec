#include "quant/kernels.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "quant/codec.hpp"
#include "util/isa.hpp"

// The batch kernels are element-wise exact (FP contraction is off
// project-wide, and the int8 min/max scan, the one reduction, selects
// rather than computes), so every ISA clone produces identical bits; AVX2
// supplies the per-lane variable shifts and byte shuffles the fp16/int8
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

// The int8 encode kernels below are written in GCC vector types: the
// auto-vectorizer turns neither the min/max scan (an IEEE select chain, not
// a min reduction) nor the float -> byte quantize into packed code. They
// work on 8 values as two 4-lane halves. A 16-byte compare or select is one
// instruction in every clone, while GCC splits a 32-byte one into scalar
// code on the baseline target; the scan is latency-bound, so two xmm chains
// keep pace with one ymm chain. The helpers are force-inlined, so each is
// compiled inside each clone.
using Vec4 = float __attribute__((vector_size(4 * sizeof(float))));
using Vec4i = std::int32_t __attribute__((vector_size(4 * sizeof(float))));
using Bytes16 = std::uint8_t __attribute__((vector_size(16)));
using Bytes8 = std::uint8_t __attribute__((vector_size(8)));
/// Vec4 at float alignment, for loads at any float address.
using Vec4Unaligned = float
    __attribute__((vector_size(4 * sizeof(float)), aligned(4), may_alias));
constexpr std::size_t kLanes = 8;

/// The seed's min/max scan over x[0, n), n >= 1: lo = min(lo, x) and
/// hi = max(hi, x) in index order, so a NaN first value poisons both and
/// later NaNs are skipped, and of tied ±0 values the first one wins.
inline void block_range_sequential(const float* x, std::size_t n, float& lo,
                                   float& hi) {
  lo = x[0];
  hi = x[0];
  for (std::size_t i = 1; i < n; ++i) {
    lo = std::min(lo, x[i]);
    hi = std::max(hi, x[i]);
  }
}

/// The same scan over 8 lanes, each starting from x[0] and applying the
/// seed's select (`x < acc ? x : acc`), then folded lane by lane. It finds
/// the values the sequential scan finds, and equal values share their bits
/// except ±0, so a lo or hi of ±0 redoes the sequential scan. So does a
/// NaN one, which only a NaN x[0] yields.
[[gnu::always_inline]] inline void block_range(const float* __restrict__ x,
                                               std::size_t n, float& lo,
                                               float& hi) {
  const float first = x[0];
  Vec4 vlo[2] = {{first, first, first, first}, {first, first, first, first}};
  Vec4 vhi[2] = {vlo[0], vlo[1]};
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (std::size_t h = 0; h < 2; ++h) {
      const Vec4 v = *reinterpret_cast<const Vec4Unaligned*>(x + i + 4 * h);
      vlo[h] = v < vlo[h] ? v : vlo[h];
      vhi[h] = vhi[h] < v ? v : vhi[h];
    }
  }
  lo = vlo[0][0];
  hi = vhi[0][0];
  for (std::size_t l = 1; l < kLanes; ++l) {
    lo = std::min(lo, vlo[l / 4][l % 4]);
    hi = std::max(hi, vhi[l / 4][l % 4]);
  }
  for (; i < n; ++i) {
    lo = std::min(lo, x[i]);
    hi = std::max(hi, x[i]);
  }
  if (lo == 0.0f || hi == 0.0f || lo != lo || hi != hi) {
    block_range_sequential(x, n, lo, hi);
  }
}

/// Shared int8 block skeleton: per block, the min/max `Scan`
/// (block_range for the batch kernels, block_range_sequential for the
/// scalar references; the two agree bitwise) and the affine range, then the
/// variant's `quantize` over the block.
template <auto Scan, typename Quantize>
[[gnu::always_inline]] inline void int8_encode_blocks(
    std::span<const float> row, std::uint8_t* codes, float* lo_out,
    float* scale_out, Quantize&& quantize) {
  const std::size_t blocks =
      (row.size() + kInt8BlockValues - 1) / kInt8BlockValues;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t begin = b * kInt8BlockValues;
    const std::size_t end = std::min(begin + kInt8BlockValues, row.size());
    float lo = 0.0f;
    float hi = 0.0f;
    Scan(row.data() + begin, end - begin, lo, hi);
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

/// Codes of 8 values: lroundf((x - lo) * inv) clamped to [0, 255], with a
/// NaN product mapping to code 0, all in registers. t is >= 0 (x >= lo) and
/// finite for a finite inv, so after the clamp to [0, 255] truncation is
/// floor, t - floor(t) is exact, and adding 1 at a fraction >= 0.5 is the
/// reference's half-away-from-zero rounding. A NaN t (an element of a
/// poisoned row whose block endpoints are finite) is zeroed first, which
/// keeps the conversion in range and lands on the reference's clamped code.
[[gnu::always_inline]] inline void int8_quantize8(
    const float* __restrict__ x, float lo, float inv,
    std::uint8_t* __restrict__ out) {
  const Vec4 zero = {};
  const Vec4 top = zero + 255.0f;
  Vec4i code[2] = {};
  for (std::size_t h = 0; h < 2; ++h) {
    Vec4 t = (*reinterpret_cast<const Vec4Unaligned*>(x + 4 * h) - lo) * inv;
    t = t == t ? t : zero;
    t = top < t ? top : t;
    const Vec4i whole = __builtin_convertvector(t, Vec4i);
    const Vec4 frac = t - __builtin_convertvector(whole, Vec4);
    // A true vector compare is -1 in every bit of its lane.
    code[h] = whole - (frac >= 0.5f);
  }
  // Codes are 0..255, so the low byte of each lane is the code.
  const Bytes8 bytes = __builtin_shufflevector(
      reinterpret_cast<Bytes16>(code[0]), reinterpret_cast<Bytes16>(code[1]),
      0, 4, 8, 12, 16, 20, 24, 28);
  std::memcpy(out, &bytes, sizeof(bytes));
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
  int8_encode_blocks<block_range>(
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
        std::size_t i = begin;
        for (; i + kLanes <= end; i += kLanes) {
          int8_quantize8(in + i, blo, inv, out + i);
        }
        if (i < end) {
          // The block's last n % 8 values: pad with lo (code 0).
          float x[kLanes];
          std::fill(x, x + kLanes, blo);
          std::copy(in + i, in + end, x);
          std::uint8_t q[kLanes] = {};
          int8_quantize8(x, blo, inv, q);
          std::copy(q, q + (end - i), out + i);
        }
      });
}

SKIPTRAIN_CODEC_CLONES
void int8_encode_dithered(std::span<const float> row, std::uint64_t stream,
                          std::uint8_t* codes, float* lo, float* scale) {
  const float* __restrict__ in = row.data();
  std::uint8_t* __restrict__ out = codes;
  int8_encode_blocks<block_range>(
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
  int8_encode_blocks<block_range_sequential>(
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
  int8_encode_blocks<block_range_sequential>(
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
