// Batch (whole-row) kernels for the exchange codecs, plus the scalar
// reference paths they must match bit for bit.
//
// The batch kernels process entire rows with branch-free bodies (integer
// selects, compare rounding) instead of calling the scalar conversion per
// element; the fp16 encoders and int8_decode auto-vectorize. The int8
// encoders scan each block's min/max in 8 lanes, and int8_encode quantizes
// 8 values at a time to bytes in registers, both written in GCC vector
// types because the auto-vectorizer left them scalar. fp16_decode and the
// dithered codec's loops (a 64-bit multiply hash per value) stay scalar.
// Every kernel is bitwise identical to its `*_scalar` counterpart — the
// seed per-element code retained verbatim — which
// tests/test_quant_kernels.cpp enforces exhaustively for fp16 (all 2^16
// halves), by fuzz for the int8 block codecs (including constant and
// denormal-heavy rows) and at every ±0 and NaN endpoint placement the
// lane scan could order differently. One scoping note: for pathological
// int8 blocks whose range is denormal-small, infinite, or NaN, the seed
// path funnels ±Inf/NaN through lroundf, whose out-of-range result is the
// *x86* saturating float→long conversion (clamps to code 0); the batch
// kernels replicate that outcome explicitly, so on a non-x86 target the
// scalar seed path — not the batch kernels — is what would diverge.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace skiptrain::quant {

// --- shared dither stream (kInt8Dithered; round-shared stateless RNG) ------

/// Stream id for (seed, round): SplitMix64 over a tagged seed.
[[nodiscard]] std::uint64_t dither_stream(std::uint64_t seed,
                                          std::size_t round);

/// Uniform in [0, 1) from (stream, coordinate): one SplitMix64 finalizer
/// over a Weyl-advanced state. Every node with the same seed and round
/// regenerates the identical dither.
[[nodiscard]] float dither_uniform(std::uint64_t stream,
                                   std::uint64_t coordinate);

// --- fp16 -------------------------------------------------------------------

/// Wire variant of fp16_from_float (codec.hpp): values that would map to
/// ±Inf saturate to the largest finite half. An Inf on the wire would turn
/// receiver-side aggregation — and the sender's exact-self correction,
/// Inf − Inf — into NaN; NaN inputs are kept (they signal a run that is
/// already broken).
[[nodiscard]] std::uint16_t fp16_wire_from_float(float value);

/// dst[i] = fp16_from_float(src[i]) — vectorized round-to-nearest-even.
void fp16_encode(std::span<const float> src, std::uint16_t* dst);

/// dst[i] = fp16_wire_from_float(src[i]) — vectorized, Inf-saturating.
void fp16_encode_wire(std::span<const float> src, std::uint16_t* dst);

/// dst[i] = fp16_to_float(src[i]) — vectorized exact widening.
void fp16_decode(const std::uint16_t* src, std::span<float> dst);

/// Scalar reference loops (call the per-element conversions).
void fp16_encode_scalar(std::span<const float> src, std::uint16_t* dst);
void fp16_encode_wire_scalar(std::span<const float> src, std::uint16_t* dst);
void fp16_decode_scalar(const std::uint16_t* src, std::span<float> dst);

// --- int8 per-block affine --------------------------------------------------
//
// Blocks of kInt8BlockValues (codec.hpp) values share an affine range
// [lo, lo + 255*scale]; a constant block encodes with scale = 0 and
// decodes exactly to lo. `codes`, `lo`, `scale` are caller-sized to
// row.size() and num_blocks respectively.

/// Nearest-rounding encode (the kInt8 wire format).
void int8_encode(std::span<const float> row, std::uint8_t* codes, float* lo,
                 float* scale);

/// Subtractive-dither encode (kInt8Dithered): q = floor(t + u).
void int8_encode_dithered(std::span<const float> row, std::uint64_t stream,
                          std::uint8_t* codes, float* lo, float* scale);

/// Decode for kInt8: out[i] = lo + scale * code.
void int8_decode(std::size_t dim, const std::uint8_t* codes, const float* lo,
                 const float* scale, float* out);

/// Decode for kInt8Dithered: out[i] = lo + scale * (code + 0.5 - u).
void int8_decode_dithered(std::size_t dim, const std::uint8_t* codes,
                          const float* lo, const float* scale,
                          std::uint64_t stream, float* out);

/// Scalar reference paths (the seed per-element code, verbatim).
void int8_encode_scalar(std::span<const float> row, std::uint8_t* codes,
                        float* lo, float* scale);
void int8_encode_dithered_scalar(std::span<const float> row,
                                 std::uint64_t stream, std::uint8_t* codes,
                                 float* lo, float* scale);
void int8_decode_scalar(std::size_t dim, const std::uint8_t* codes,
                        const float* lo, const float* scale, float* out);
void int8_decode_dithered_scalar(std::size_t dim, const std::uint8_t* codes,
                                 const float* lo, const float* scale,
                                 std::uint64_t stream, float* out);

}  // namespace skiptrain::quant
