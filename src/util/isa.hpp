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
/// (graph/mixing.cpp) and the GroupNorm and MaxPool kernels (nn/). No
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

/// The Vec8 at any float address.
[[gnu::always_inline]] inline const Vec8Unaligned& vec_at(const float* p) {
  return *reinterpret_cast<const Vec8Unaligned*>(p);
}
[[gnu::always_inline]] inline Vec8Unaligned& vec_at(float* p) {
  return *reinterpret_cast<Vec8Unaligned*>(p);
}

}  // namespace skiptrain::util
