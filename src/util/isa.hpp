// Runtime ISA dispatch for the vectorized kernels (GCC target_clones).
//
// A function marked with one of the clone macros below is compiled once per
// listed target, and an IFUNC resolver picks the clone at load time from
// the CPU's feature bits: one binary runs on baseline x86-64 and uses wider
// vectors where the host has them. No option, variable or build switch
// selects a clone; the CPU does.
//
// Every clone must produce the bits of the default clone. The project
// builds with -ffp-contract=off (CMakeLists.txt), so no clone fuses a * b + c
// into an FMA, and each kernel keeps one operation order per output element
// whatever the vector width.
//
// The macros expand to nothing, leaving one default-target function, off
// x86-64 ELF, under Clang, and under AddressSanitizer and ThreadSanitizer.
// The dynamic loader runs IFUNC resolvers during relocation, before a
// sanitizer runtime has initialised, and an instrumented resolver crashes
// there; sanitizer builds therefore run, and instrument, the default clone.
#pragma once

#if defined(__x86_64__) && defined(__ELF__) && defined(__GNUC__) && \
    !defined(__clang__) && !defined(__SANITIZE_ADDRESS__) &&        \
    !defined(__SANITIZE_THREAD__)
#define SKIPTRAIN_ISA_CLONES 1
/// Codec batch kernels (quant/kernels.cpp). The x86-64-v4 clone is the
/// fastest there: fp16_encode of 4810 values takes 3.7 us against 11 us for
/// the avx2 clone.
#define SKIPTRAIN_CODEC_CLONES \
  __attribute__((target_clones("arch=x86-64-v4", "avx2", "default")))
/// GEMM kernels (tensor/gemm.cpp), the gossip row reduction
/// (graph/mixing.cpp), the GroupNorm and MaxPool kernels (nn/) and the
/// training loss's certified row kernel (nn/loss.cpp). No
/// x86-64-v4 clone: the kernels are written in 8-float vectors (Vec8), so
/// one would add no width, and the float[4][8] tile loops the blocked GEMM
/// had before ran 7-8x slower in it than in the avx2 clone.
#define SKIPTRAIN_GEMM_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define SKIPTRAIN_ISA_CLONES 0
#define SKIPTRAIN_CODEC_CLONES
#define SKIPTRAIN_GEMM_CLONES
#endif

namespace skiptrain::util {

/// Eight floats in one GCC vector: one ymm register in an avx2 clone, two
/// xmm in the default one. Kernels pass it by reference only (-Wpsabi
/// flags a vector argument or return) and force-inline their helpers, so
/// each compiles inside each clone. Vec8Unaligned loads and stores it at
/// any float address.
using Vec8 = float __attribute__((vector_size(8 * sizeof(float))));
using Vec8Unaligned = float
    __attribute__((vector_size(8 * sizeof(float)), aligned(4), may_alias));
/// Four floats: one xmm register in every clone.
using Vec4 = float __attribute__((vector_size(4 * sizeof(float))));
using Vec4Unaligned = float
    __attribute__((vector_size(4 * sizeof(float)), aligned(4), may_alias));
/// Lane masks of Vec8 / Vec4 comparisons (-1 where true), and the index
/// vectors __builtin_shuffle takes.
using Mask8 = int __attribute__((vector_size(8 * sizeof(int))));
using Mask4 = int __attribute__((vector_size(4 * sizeof(int))));

/// Four doubles: one ymm register in an avx2 clone, two xmm in the default
/// one, and the int64 lane masks of their comparisons.
using Vec4d = double __attribute__((vector_size(4 * sizeof(double))));
using Mask4d = long long __attribute__((vector_size(4 * sizeof(long long))));

/// y = exp(x) in four double lanes, for x in [-708, 0]: the result is then
/// a normal double within 2 * 2^-52 of exp(x), relative (the budget
/// nn::softmax_cross_entropy certifies against; test_nn_loss sweeps it
/// against expl). Outside that domain the result is unspecified.
///
/// x = k ln2 + r with k = round(x / ln2) by the 1.5 * 2^52 shift and a
/// Cody-Waite split of ln2 whose high part has 32 bits, so k * kLn2Hi and
/// x - k * kLn2Hi are exact; |r| <= ln2/2. exp(r) is its Taylor
/// polynomial of degree 13 by Horner (truncation below 0.03 * 2^-52), and
/// 2^k comes from the shifted value's low bits. Plain multiplies and adds
/// only, with -ffp-contract=off: every clone gives the same bits.
[[gnu::always_inline]] inline void exp4d(const Vec4d& x, Vec4d& y) {
  constexpr double kLog2e = 0x1.71547652b82fep0;
  constexpr double kShift = 0x1.8p52;
  constexpr double kLn2Hi = 0x1.62e42fee00000p-1;
  constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
  const Vec4d shifted = x * kLog2e + kShift;
  const Vec4d k = shifted - kShift;
  const Vec4d r = (x - k * kLn2Hi) - k * kLn2Lo;
  Vec4d p = r * (1.0 / 6227020800.0) + 1.0 / 479001600.0;
  p = p * r + 1.0 / 39916800.0;
  p = p * r + 1.0 / 3628800.0;
  p = p * r + 1.0 / 362880.0;
  p = p * r + 1.0 / 40320.0;
  p = p * r + 1.0 / 5040.0;
  p = p * r + 1.0 / 720.0;
  p = p * r + 1.0 / 120.0;
  p = p * r + 1.0 / 24.0;
  p = p * r + 1.0 / 6.0;
  p = p * r + 0.5;
  p = p * r + 1.0;
  p = p * r + 1.0;
  // The shift's low 12 bits hold k mod 2^12; k + 1023 there is 2^k's
  // biased exponent, in [1, 1023] for x in [-708, 0].
  // (__builtin_bit_cast: std::bit_cast would return a vector by value.)
  const Mask4d two_k = (__builtin_bit_cast(Mask4d, shifted) + 1023) << 52;
  y = p * __builtin_bit_cast(Vec4d, two_k);
}

/// The Vec8 at any float address.
[[gnu::always_inline]] inline const Vec8Unaligned& vec_at(const float* p) {
  return *reinterpret_cast<const Vec8Unaligned*>(p);
}
[[gnu::always_inline]] inline Vec8Unaligned& vec_at(float* p) {
  return *reinterpret_cast<Vec8Unaligned*>(p);
}

}  // namespace skiptrain::util
