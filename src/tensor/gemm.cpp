// GEMM kernels (see gemm.hpp for the bit-identity contract). The public
// gemm_nn/gemm_nt/gemm_tn entry points of tensor/ops.hpp dispatch among
// three kernel families, all bitwise identical, so the dispatch rules are
// pure performance knobs:
//
//   * register-row kernels, for every shape with n <= 64 whose B panel
//     fits L1 (the compact-MLP training and evaluation GEMMs): one C row in
//     vector registers, A's zero multipliers compacted away per row;
//   * blocked kernels, for larger zero-free shapes (the GN-LeNet
//     convolutions and wide Linear layers);
//   * the seed reference loops, for what is left: small or degenerate
//     shapes past the row kernels' reach, and for nn/tn an A that is a
//     quarter or more zeros.
//
// Blocked structure: B panels and A blocks are both repacked into
// register-tile-wide slivers (kNR and kMR contiguous strips per k step,
// edge slivers zero-padded to full width), so the microkernels are
// explicit Vec8 code: per k step one B vector, kMR broadcast multipliers
// and kMR multiply-adds into the four accumulator vectors. Edge tiles
// run the same kernels and store only their live rows and lanes. The
// driver takes both packers as callbacks: B comes from a row-major matrix
// or, for gemm_nn_indexed, through offset tables (a convolution's patch
// matrix read straight from the padded image). The
// reference loops' skip-zero-multiplier branch is honored by scanning
// each A sliver's live rows for zeros while packing it: zero-free slivers
// (the common case — model parameters and activations are continuous
// values) run a branch-free microkernel, slivers holding zeros (e.g.
// post-ReLU gradients in gemm_tn) run a blend microkernel whose
// `acc = av == 0 ? acc : acc + av*b` select reproduces the skip bitwise.
//
// ISA dispatch: the kernels (gemm_*_ref, gemm_*_blocked, gemm_*_rows,
// gemm_nn_indexed and its packer's test hook) carry
// SKIPTRAIN_GEMM_CLONES (util/isa.hpp), one avx2 and one default
// clone picked at load time. The packers, tile and row loads and stores,
// microkernels and drivers are force-inlined, so each hot loop is compiled
// inside each clone rather than once at the default target. Neither the
// expressions nor the loop orders differ between clones, and contraction
// is off project-wide, so all clones give the same bits.
#include "tensor/gemm.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <type_traits>
#include <vector>

#include "obs/registry.hpp"
#include "tensor/ops.hpp"
#include "util/arena.hpp"
#include "util/isa.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace skiptrain::tensor {

// ---------------------------------------------------------------------------
// Reference kernels — the seed loops, verbatim.
// ---------------------------------------------------------------------------

SKIPTRAIN_GEMM_CLONES
void gemm_nn_ref(std::size_t m, std::size_t k, std::size_t n,
                 std::span<const float> a, std::span<const float> b,
                 std::span<float> c, float beta) {
  assert(a.size() >= m * k && b.size() >= k * n && c.size() >= m * n);
  // i-k-j loop order: the inner loop streams both B's row and C's row,
  // which vectorises well and is cache-friendly for row-major storage.
  for (std::size_t i = 0; i < m; ++i) {
    float* __restrict__ ci = c.data() + i * n;
    if (beta == 0.0f) {
      std::fill(ci, ci + n, 0.0f);
    } else if (beta != 1.0f) {
      for (std::size_t j = 0; j < n; ++j) ci[j] *= beta;
    }
    const float* __restrict__ ai = a.data() + i * k;
    for (std::size_t p = 0; p < k; ++p) {
      const float aip = ai[p];
      if (aip == 0.0f) continue;
      const float* __restrict__ bp = b.data() + p * n;
      for (std::size_t j = 0; j < n; ++j) ci[j] += aip * bp[j];
    }
  }
}

SKIPTRAIN_GEMM_CLONES
void gemm_nt_ref(std::size_t m, std::size_t k, std::size_t n,
                 std::span<const float> a, std::span<const float> b,
                 std::span<float> c, float beta) {
  assert(a.size() >= m * k && b.size() >= n * k && c.size() >= m * n);
  // C[i,j] = <A_row_i, B_row_j>: both operands stream contiguously.
  // BLAS semantics: C must not be read when beta == 0 — it may be
  // uninitialized or NaN-poisoned, and NaN * 0 is NaN, so the scale-by-beta
  // form is hoisted into an explicit branch.
  for (std::size_t i = 0; i < m; ++i) {
    const float* __restrict__ ai = a.data() + i * k;
    float* __restrict__ ci = c.data() + i * n;
    if (beta == 0.0f) {
      for (std::size_t j = 0; j < n; ++j) {
        const float* __restrict__ bj = b.data() + j * k;
        float acc = 0.0f;
        for (std::size_t p = 0; p < k; ++p) acc += ai[p] * bj[p];
        ci[j] = acc;
      }
    } else {
      for (std::size_t j = 0; j < n; ++j) {
        const float* __restrict__ bj = b.data() + j * k;
        float acc = 0.0f;
        for (std::size_t p = 0; p < k; ++p) acc += ai[p] * bj[p];
        ci[j] = beta * ci[j] + acc;
      }
    }
  }
}

SKIPTRAIN_GEMM_CLONES
void gemm_tn_ref(std::size_t m, std::size_t k, std::size_t n,
                 std::span<const float> a, std::span<const float> b,
                 std::span<float> c, float beta) {
  assert(a.size() >= k * m && b.size() >= k * n && c.size() >= m * n);
  if (beta == 0.0f) {
    std::fill(c.begin(), c.begin() + static_cast<std::ptrdiff_t>(m * n), 0.0f);
  } else if (beta != 1.0f) {
    for (std::size_t i = 0; i < m * n; ++i) c[i] *= beta;
  }
  // C[i,j] += A[p,i] * B[p,j]: accumulate outer products row-by-row of the
  // shared dimension; inner loop is contiguous over B and C.
  for (std::size_t p = 0; p < k; ++p) {
    const float* __restrict__ ap = a.data() + p * m;
    const float* __restrict__ bp = b.data() + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float api = ap[i];
      if (api == 0.0f) continue;
      float* __restrict__ ci = c.data() + i * n;
      for (std::size_t j = 0; j < n; ++j) ci[j] += api * bp[j];
    }
  }
}

// ---------------------------------------------------------------------------
// Tuning
// ---------------------------------------------------------------------------

namespace {

using util::Mask4;
using util::Mask8;
using util::Vec4;
using util::Vec4Unaligned;
using util::Vec8;
using util::vec_at;
constexpr std::size_t kLanes = 8;

// Register tile: kMR rows of one Vec8 each, so 4 of the 16 ymm registers
// in the avx2 clone and 8 of the 16 xmm registers in the default one. One
// tile for every clone keeps one operation order per element. Wider tiles
// (4x16, 6x16, 8x8) measured no faster in L1: without FMA the tile is
// bound by the multiply and add ports, not by loads or latency.
constexpr std::size_t kMR = 4;  // microkernel register-tile rows
constexpr std::size_t kNR = kGemmSliverCols;  // register-tile columns
static_assert(kNR == kLanes, "one Vec8 per tile row");

GemmTuning derive_tuning() {
  GemmTuning t{};
  t.l1d_bytes = 32 * 1024;
  t.l2_bytes = 1024 * 1024;
#if defined(_SC_LEVEL1_DCACHE_SIZE)
  if (const long l1 = sysconf(_SC_LEVEL1_DCACHE_SIZE); l1 > 0) {
    t.l1d_bytes = static_cast<std::size_t>(l1);
  }
#endif
#if defined(_SC_LEVEL2_CACHE_SIZE)
  if (const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE); l2 > 0) {
    t.l2_bytes = static_cast<std::size_t>(l2);
  }
#endif
  // One kc x kNR sliver of the packed B panel should occupy about a third
  // of L1d so it stays hot while the microkernel walks an A row block.
  const std::size_t kc_raw = t.l1d_bytes / (3 * sizeof(float) * kNR);
  t.kc = std::clamp<std::size_t>(kc_raw & ~std::size_t{7}, 64, 512);
  // The packed mc x kc block of A should fill about half of L2.
  const std::size_t mc_raw = t.l2_bytes / (2 * sizeof(float) * t.kc);
  t.mc = std::clamp<std::size_t>(mc_raw & ~(kMR - 1), kMR, 1024);
  t.nc = 256;
  return t;
}

/// Grow-only scratch for packed panels, backed by util::AlignedArena
/// (64-byte aligned, huge-page-advised past 2 MiB; per thread — the
/// engines run GEMMs from pool workers, never nested).
struct PackScratch {
  util::AlignedArena a;                // packed A slivers
  util::AlignedArena b;                // packed B slivers, or the row
                                       // kernels' padded / transposed B
  std::vector<std::uint8_t> a_zeros;   // per-A-sliver "contains a zero" flag
};

thread_local PackScratch t_scratch;

// ---------------------------------------------------------------------------
// Panel packing
//
// B panels: sliver s holds rows p of columns [j0, j0 + kNR) back to back
// (dst[s * depth * kNR + p * kNR + jj]), so the microkernel's per-p load
// is one Vec8. A blocks: sliver s holds the kMR rows [i0, i0 + kMR)
// interleaved per p (dst[s * depth * kMR + p * kMR + r]), so the per-p
// multipliers are contiguous too. Edge slivers are zero-padded to full
// width: the microkernels run every tile at full width and store only its
// live part. A sliver's zero flag comes from its live rows alone.
// ---------------------------------------------------------------------------

/// Interleaves R rows of `depth` floats (row r at src + r * ld; rows from
/// `live` on read as zeros) into dst[p * R + r]: a 4 x 8 or 8 x 8 block
/// transpose per 8 steps of p, in shuffles. Returns whether a live value
/// is an exact zero (-0.0f included).
template <std::size_t R>
[[gnu::always_inline]] inline
bool interleave_rows(const float* __restrict__ src, std::size_t ld,
                     std::size_t live, std::size_t depth,
                     float* __restrict__ dst) {
  static_assert(R == 4 || R == 8);
  Mask8 zero8 = {};
  std::size_t p = 0;
  for (; p + kLanes <= depth; p += kLanes) {
    Vec8 v[R];
    for (std::size_t r = 0; r < R; ++r) {
      v[r] = r < live ? Vec8(vec_at(src + r * ld + p)) : Vec8{};
      if (r < live) zero8 |= v[r] == Vec8{};
    }
    // Within each 128-bit half: pairs (unpcklps / unpckhps), then quads
    // (unpcklpd / unpckhpd). q[h] holds steps h and h + 4 of rows 0..3
    // (and q[4 + h] of rows 4..7).
    Vec8 q[R];
    for (std::size_t g = 0; g < R; g += 4) {
      const Vec8 lo01 = __builtin_shuffle(v[g], v[g + 1],
                                          Mask8{0, 8, 1, 9, 4, 12, 5, 13});
      const Vec8 hi01 = __builtin_shuffle(v[g], v[g + 1],
                                          Mask8{2, 10, 3, 11, 6, 14, 7, 15});
      const Vec8 lo23 = __builtin_shuffle(v[g + 2], v[g + 3],
                                          Mask8{0, 8, 1, 9, 4, 12, 5, 13});
      const Vec8 hi23 = __builtin_shuffle(v[g + 2], v[g + 3],
                                          Mask8{2, 10, 3, 11, 6, 14, 7, 15});
      q[g + 0] = __builtin_shuffle(lo01, lo23, Mask8{0, 1, 8, 9, 4, 5, 12, 13});
      q[g + 1] = __builtin_shuffle(lo01, lo23, Mask8{2, 3, 10, 11, 6, 7, 14, 15});
      q[g + 2] = __builtin_shuffle(hi01, hi23, Mask8{0, 1, 8, 9, 4, 5, 12, 13});
      q[g + 3] = __builtin_shuffle(hi01, hi23, Mask8{2, 3, 10, 11, 6, 7, 14, 15});
    }
    // Across the halves (vperm2f128): steps h and h + 4 land R * 4 floats
    // apart.
    float* __restrict__ out = dst + p * R;
    constexpr Mask8 kLow{0, 1, 2, 3, 8, 9, 10, 11};
    constexpr Mask8 kHigh{4, 5, 6, 7, 12, 13, 14, 15};
    if constexpr (R == 4) {
      vec_at(out + 0) = __builtin_shuffle(q[0], q[1], kLow);
      vec_at(out + 8) = __builtin_shuffle(q[2], q[3], kLow);
      vec_at(out + 16) = __builtin_shuffle(q[0], q[1], kHigh);
      vec_at(out + 24) = __builtin_shuffle(q[2], q[3], kHigh);
    } else {
      for (std::size_t h = 0; h < 4; ++h) {
        vec_at(out + h * 8) = __builtin_shuffle(q[h], q[4 + h], kLow);
        vec_at(out + (h + 4) * 8) = __builtin_shuffle(q[h], q[4 + h], kHigh);
      }
    }
  }
  bool any_zero = false;
  for (std::size_t lane = 0; lane < kLanes; ++lane) any_zero |= zero8[lane] != 0;
  for (; p < depth; ++p) {
    for (std::size_t r = 0; r < R; ++r) {
      const float x = r < live ? src[r * ld + p] : 0.0f;
      dst[p * R + r] = x;
      any_zero |= r < live && x == 0.0f;
    }
  }
  return any_zero;
}

/// Packs `depth` rows x nc columns of row-major storage starting at src
/// (row stride ld) into kNR-column slivers.
[[gnu::always_inline]] inline
void pack_b_slivers(const float* __restrict__ src, std::size_t ld,
                    std::size_t depth, std::size_t nc,
                    float* __restrict__ dst) {
  for (std::size_t j0 = 0; j0 < nc; j0 += kNR) {
    const std::size_t w = std::min(kNR, nc - j0);
    float* __restrict__ out = dst + (j0 / kNR) * depth * kNR;
    const float* __restrict__ in = src + j0;
    if (w == kNR) {
      for (std::size_t p = 0; p < depth; ++p) {
        vec_at(out + p * kNR) = vec_at(in + p * ld);
      }
    } else {
      for (std::size_t p = 0; p < depth; ++p) {
        float* __restrict__ o = out + p * kNR;
        std::fill(std::copy(in + p * ld, in + p * ld + w, o), o + kNR, 0.0f);
      }
    }
  }
}

/// Packs rows [pc, pc + depth) x columns [jc, jc + nc) of an IndexedB into
/// kNR-column slivers. A full sliver over contiguous offsets is one Vec8
/// copy per row (a stride-1 conv's positions within an output row); any
/// other sliver gathers its lanes through the column table.
[[gnu::always_inline]] inline
void pack_b_indexed_slivers(const IndexedB& b, std::size_t pc,
                            std::size_t jc, std::size_t depth, std::size_t nc,
                            float* __restrict__ dst) {
  const float* __restrict__ src = b.src;
  const std::size_t* __restrict__ rows = b.row_off + pc;
  for (std::size_t j0 = 0; j0 < nc; j0 += kNR) {
    const std::size_t w = std::min(kNR, nc - j0);
    float* __restrict__ out = dst + (j0 / kNR) * depth * kNR;
    const std::size_t* __restrict__ cols = b.col_off + jc + j0;
    // col_off is strictly increasing, so kNR entries spanning kNR - 1 are
    // consecutive.
    if (w == kNR && cols[kNR - 1] - cols[0] == kNR - 1) {
      const float* __restrict__ in = src + cols[0];
      for (std::size_t p = 0; p < depth; ++p) {
        vec_at(out + p * kNR) = vec_at(in + rows[p]);
      }
    } else if (w == kNR) {
      for (std::size_t p = 0; p < depth; ++p) {
        const float* __restrict__ in = src + rows[p];
        for (std::size_t jj = 0; jj < kNR; ++jj) out[p * kNR + jj] = in[cols[jj]];
      }
    } else {
      for (std::size_t p = 0; p < depth; ++p) {
        const float* __restrict__ in = src + rows[p];
        for (std::size_t jj = 0; jj < kNR; ++jj) {
          out[p * kNR + jj] = jj < w ? in[cols[jj]] : 0.0f;
        }
      }
    }
  }
}

/// Packs A[ic..ic+mc, pc..pc+kc] of a row-major [m, k] matrix (lda == k)
/// into kMR-row slivers, recording per sliver whether it holds any exact
/// zero (selects the skip-preserving microkernel).
[[gnu::always_inline]] inline
void pack_a_rows(const float* __restrict__ a, std::size_t lda, std::size_t ic,
                 std::size_t pc, std::size_t mc, std::size_t kc,
                 float* __restrict__ dst, std::uint8_t* __restrict__ zeros) {
  for (std::size_t i0 = 0; i0 < mc; i0 += kMR) {
    const std::size_t w = std::min(kMR, mc - i0);
    zeros[i0 / kMR] = interleave_rows<kMR>(a + (ic + i0) * lda + pc, lda, w,
                                           kc, dst + (i0 / kMR) * kc * kMR);
  }
}

/// Packs A[pc..pc+kc, ic..ic+mc] of a row-major [k, m] matrix (lda == m —
/// the gemm_tn layout) into kMR-row slivers with zero flags: a full
/// sliver's row p is one Vec4 copy.
[[gnu::always_inline]] inline
void pack_a_cols(const float* __restrict__ a, std::size_t lda, std::size_t ic,
                 std::size_t pc, std::size_t mc, std::size_t kc,
                 float* __restrict__ dst, std::uint8_t* __restrict__ zeros) {
  for (std::size_t i0 = 0; i0 < mc; i0 += kMR) {
    const std::size_t w = std::min(kMR, mc - i0);
    float* __restrict__ out = dst + (i0 / kMR) * kc * kMR;
    const float* __restrict__ src = a + pc * lda + ic + i0;
    bool any_zero = false;
    if (w == kMR) {
      Mask4 zero4 = {};
      for (std::size_t p = 0; p < kc; ++p) {
        const Vec4 v = *reinterpret_cast<const Vec4Unaligned*>(src + p * lda);
        *reinterpret_cast<Vec4Unaligned*>(out + p * kMR) = v;
        zero4 |= v == Vec4{};
      }
      for (std::size_t r = 0; r < kMR; ++r) any_zero |= zero4[r] != 0;
    } else {
      for (std::size_t p = 0; p < kc; ++p) {
        for (std::size_t r = 0; r < kMR; ++r) {
          const float x = r < w ? src[p * lda + r] : 0.0f;
          out[p * kMR + r] = x;
          any_zero |= r < w && x == 0.0f;
        }
      }
    }
    zeros[i0 / kMR] = any_zero ? 1 : 0;
  }
}

// ---------------------------------------------------------------------------
// Microkernels: a kMR x kNR tile of C in kMR Vec8 registers. All operands
// are packed slivers: A row p at ap + p * kMR, B row p at bp + p * kNR.
// Every tile runs at full width; an edge tile (kFull false) loads its live
// mr x nr part of C into zeroed registers and stores only that part back.
// Dead rows and lanes see zero multipliers and zero B lanes, and never
// reach C.
// ---------------------------------------------------------------------------

template <bool kFull>
[[gnu::always_inline]] inline
void load_tile(Vec8 (&acc)[kMR], std::size_t mr, std::size_t nr,
               const float* __restrict__ c, std::size_t ldc) {
  for (std::size_t r = 0; r < kMR; ++r) {
    if constexpr (kFull) {
      acc[r] = vec_at(c + r * ldc);
    } else {
      float row[kNR] = {};
      if (r < mr) std::copy(c + r * ldc, c + r * ldc + nr, row);
      acc[r] = vec_at(row);
    }
  }
}

template <bool kFull>
[[gnu::always_inline]] inline
void store_tile(const Vec8 (&acc)[kMR], std::size_t mr, std::size_t nr,
                float* __restrict__ c, std::size_t ldc) {
  for (std::size_t r = 0; r < (kFull ? kMR : mr); ++r) {
    if constexpr (kFull) {
      vec_at(c + r * ldc) = acc[r];
    } else {
      float row[kNR];
      vec_at(row) = acc[r];
      std::copy(row, row + nr, c + r * ldc);
    }
  }
}

/// C-accumulating tile for gemm_nn / gemm_tn. C starts as the reference
/// starts it in the first k block (0 for beta == 0, never read; C * beta
/// unless beta == 1) and is carried through C memory across blocks. A
/// zero-free sliver (kGuard false) can never fire the reference's skip, so
/// the plain `acc + a * b` is bitwise identical. A sliver holding zeros
/// (kGuard true) blends instead: where a is exactly zero the lanes keep the
/// old accumulator, which is bitwise the skip (an a of zero contributes not
/// even a sign flip).
template <bool kGuard, bool kFull>
[[gnu::always_inline]] inline
void micro_cacc(std::size_t mr, std::size_t nr, std::size_t kc,
                const float* __restrict__ ap, const float* __restrict__ bp,
                float* __restrict__ c, std::size_t ldc, float beta,
                bool first_block) {
  Vec8 acc[kMR] = {};
  if (!first_block || beta != 0.0f) {
    load_tile<kFull>(acc, mr, nr, c, ldc);
    if (first_block && beta != 1.0f) {
      for (std::size_t r = 0; r < kMR; ++r) acc[r] = acc[r] * beta;
    }
  }
  for (std::size_t p = 0; p < kc; ++p) {
    const Vec8 b = vec_at(bp + p * kNR);
    const float* __restrict__ arow = ap + p * kMR;
    for (std::size_t r = 0; r < kMR; ++r) {
      const float x = arow[r];
      const Vec8 av = {x, x, x, x, x, x, x, x};
      const Vec8 sum = acc[r] + av * b;
      if constexpr (kGuard) {
        acc[r] = av == Vec8{} ? acc[r] : sum;
      } else {
        acc[r] = sum;
      }
    }
  }
  store_tile<kFull>(acc, mr, nr, c, ldc);
}

/// Register tile for gemm_nt: fresh dot accumulators over the whole k
/// extent (p ascending — the reference op sequence), combined with beta
/// only at the end. No zero skip: the reference dot loop has none.
template <bool kFull>
[[gnu::always_inline]] inline
void micro_nt(std::size_t mr, std::size_t nr, std::size_t k,
              const float* __restrict__ ap, const float* __restrict__ bp,
              float* __restrict__ c, std::size_t ldc, float beta) {
  Vec8 acc[kMR] = {};
  for (std::size_t p = 0; p < k; ++p) {
    const Vec8 b = vec_at(bp + p * kNR);
    const float* __restrict__ arow = ap + p * kMR;
    for (std::size_t r = 0; r < kMR; ++r) acc[r] = acc[r] + arow[r] * b;
  }
  if (beta != 0.0f) {
    Vec8 old[kMR];
    load_tile<kFull>(old, mr, nr, c, ldc);
    for (std::size_t r = 0; r < kMR; ++r) acc[r] = beta * old[r] + acc[r];
  }
  store_tile<kFull>(acc, mr, nr, c, ldc);
}

// ---------------------------------------------------------------------------
// Blocked drivers
// ---------------------------------------------------------------------------

/// Runs one tile in the kernel variant it needs: blend if the A sliver
/// holds a zero, full-width loads and stores if the tile is whole.
[[gnu::always_inline]] inline
void run_cacc_tile(bool has_zero, std::size_t mr, std::size_t nr,
                   std::size_t kc, const float* ap, const float* bp, float* c,
                   std::size_t ldc, float beta, bool first_block) {
  const bool full = mr == kMR && nr == kNR;
  if (has_zero) {
    if (full) {
      micro_cacc<true, true>(mr, nr, kc, ap, bp, c, ldc, beta, first_block);
    } else {
      micro_cacc<true, false>(mr, nr, kc, ap, bp, c, ldc, beta, first_block);
    }
  } else if (full) {
    micro_cacc<false, true>(mr, nr, kc, ap, bp, c, ldc, beta, first_block);
  } else {
    micro_cacc<false, false>(mr, nr, kc, ap, bp, c, ldc, beta, first_block);
  }
}

/// Shared driver for the C-accumulating variants. PackA packs the
/// (ic, pc, mc, kc) block of A into slivers + zero flags; PackB packs the
/// (pc, jc, kc, nc) panel of B into kNR-column slivers.
template <typename PackA, typename PackB>
[[gnu::always_inline]] inline
void gemm_cacc_blocked(std::size_t m, std::size_t k, std::size_t n,
                       std::span<float> c, float beta, PackA&& pack_a,
                       PackB&& pack_b) {
  const GemmTuning& tun = gemm_tuning();
  float* bp = t_scratch.b.ensure_floats(tun.kc * (tun.nc + kNR));
  float* ap = t_scratch.a.ensure_floats(tun.kc * (tun.mc + kMR));
  t_scratch.a_zeros.resize(tun.mc / kMR + 1);
  std::uint8_t* zeros = t_scratch.a_zeros.data();
  for (std::size_t jc = 0; jc < n; jc += tun.nc) {
    const std::size_t nc = std::min(tun.nc, n - jc);
    for (std::size_t pc = 0; pc < k; pc += tun.kc) {
      const std::size_t kc = std::min(tun.kc, k - pc);
      const bool first = pc == 0;
      pack_b(pc, jc, kc, nc, bp);
      for (std::size_t ic = 0; ic < m; ic += tun.mc) {
        const std::size_t mc = std::min(tun.mc, m - ic);
        pack_a(ic, pc, mc, kc, ap, zeros);
        for (std::size_t i0 = 0; i0 < mc; i0 += kMR) {
          const std::size_t mr = std::min(kMR, mc - i0);
          const float* asliver = ap + (i0 / kMR) * kc * kMR;
          const bool has_zero = zeros[i0 / kMR] != 0;
          float* crow = c.data() + (ic + i0) * n + jc;
          for (std::size_t j0 = 0; j0 < nc; j0 += kNR) {
            run_cacc_tile(has_zero, mr, std::min(kNR, nc - j0), kc, asliver,
                          bp + (j0 / kNR) * kc * kNR, crow + j0, n, beta,
                          first);
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Register-row kernels: one C row of n <= kRowsMaxN floats lives in
// ceil(n / 8) vectors of 8 lanes for the whole k walk, so each output
// element sees the reference's op sequence with no per-tile C traffic and
// no A packing. Vec8 (util/isa.hpp) is a GCC vector type; the helpers
// take vectors by reference only and are force-inlined.
// ---------------------------------------------------------------------------

constexpr std::size_t kRowsMaxN = 64;
constexpr std::size_t kRowsMaxK = 256;
/// Floats of B (n padded to whole vectors) the row kernels read per call:
/// 32 KiB, so the panel stays L1-resident while every C row walks it.
constexpr std::size_t kRowsMaxPanel = 8192;

/// Loads C row `c` (NV = ceil(n / 8) vectors) into acc; lanes past n are 0.
template <std::size_t NV>
[[gnu::always_inline]] inline
void load_row(Vec8 (&acc)[NV], const float* __restrict__ c, std::size_t n) {
  const std::size_t whole = n / kLanes;
  for (std::size_t v = 0; v < NV; ++v) {
    if (v < whole) {
      acc[v] = vec_at(c + v * kLanes);
    } else {
      float tail[kLanes] = {};
      std::copy(c + v * kLanes, c + v * kLanes + n % kLanes, tail);
      acc[v] = vec_at(tail);
    }
  }
}

/// Stores the first n lanes of acc to C row `c`.
template <std::size_t NV>
[[gnu::always_inline]] inline
void store_row(const Vec8 (&acc)[NV], float* __restrict__ c, std::size_t n) {
  const std::size_t whole = n / kLanes;
  for (std::size_t v = 0; v < NV; ++v) {
    if (v < whole) {
      vec_at(c + v * kLanes) = acc[v];
    } else {
      float tail[kLanes];
      vec_at(tail) = acc[v];
      std::copy(tail, tail + n % kLanes, c + v * kLanes);
    }
  }
}

/// Copies B (row stride n) into `dst` with rows padded to NV * 8 floats,
/// so every B row is whole vectors. Pad lanes never reach C; they are zero
/// so no stale arena value (a denormal, say) slows the lanes computing
/// them.
template <std::size_t NV>
[[gnu::always_inline]] inline
void pad_b_rows(const float* __restrict__ b, std::size_t k, std::size_t n,
                float* __restrict__ dst) {
  constexpr std::size_t w = NV * kLanes;
  for (std::size_t p = 0; p < k; ++p) {
    std::memcpy(dst + p * w, b + p * n, n * sizeof(float));
    std::fill(dst + p * w + n, dst + (p + 1) * w, 0.0f);
  }
}

/// C-accumulating rows for gemm_nn / gemm_tn: C row i starts as the
/// reference starts it (0 for beta == 0, C never read; C for beta == 1;
/// C * beta otherwise), then gains `a * B row p` for each p in ascending
/// order. A element (i, p) sits at a[i * a_row + p * a_col]. The row's
/// nonzero multipliers are compacted first, without a branch, so the
/// reference's skip of exact zeros (-0.0f included) holds exactly.
template <std::size_t NV>
[[gnu::always_inline]] inline
void rows_cacc(std::size_t m, std::size_t k, std::size_t n,
               const float* __restrict__ a, std::size_t a_row,
               std::size_t a_col, const float* __restrict__ b,
               std::size_t ldb, float* __restrict__ c, float beta) {
  std::uint32_t offset[kRowsMaxK];
  float mult[kRowsMaxK];
  for (std::size_t i = 0; i < m; ++i) {
    const float* __restrict__ ai = a + i * a_row;
    std::size_t live = 0;
    for (std::size_t p = 0; p < k; ++p) {
      const float x = ai[p * a_col];
      offset[live] = static_cast<std::uint32_t>(p * ldb);
      mult[live] = x;
      live += x != 0.0f ? 1 : 0;
    }
    float* __restrict__ ci = c + i * n;
    Vec8 acc[NV] = {};
    if (beta != 0.0f) {
      load_row(acc, ci, n);
      if (beta != 1.0f) {
        for (std::size_t v = 0; v < NV; ++v) acc[v] = acc[v] * beta;
      }
    }
    for (std::size_t q = 0; q < live; ++q) {
      const float x = mult[q];
      const float* __restrict__ bp = b + offset[q];
      for (std::size_t v = 0; v < NV; ++v) {
        acc[v] = acc[v] + x * vec_at(bp + v * kLanes);
      }
    }
    store_row(acc, ci, n);
  }
}

/// gemm_nt rows over bt, B transposed into NV slivers of kNR columns
/// (sliver v holds row p of columns [v * 8, +8) at bt[(v * k + p) * 8],
/// as gemm_nt_blocked packs its panels): a fresh dot per element (p
/// ascending, no zero skip, as the reference dot loop), then combined as
/// `beta * C + acc`, or stored alone for beta == 0. R rows at a time share
/// each B load.
template <std::size_t NV, std::size_t R>
[[gnu::always_inline]] inline
void rows_nt_block(std::size_t k, std::size_t n, const float* __restrict__ a,
                   const float* __restrict__ bt, float* __restrict__ c,
                   float beta) {
  Vec8 acc[R][NV] = {};
  for (std::size_t p = 0; p < k; ++p) {
    float x[R];
    for (std::size_t r = 0; r < R; ++r) x[r] = a[r * k + p];
    const float* __restrict__ bp = bt + p * kNR;
    for (std::size_t v = 0; v < NV; ++v) {
      const Vec8 b = vec_at(bp + v * k * kNR);
      for (std::size_t r = 0; r < R; ++r) acc[r][v] = acc[r][v] + x[r] * b;
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    float* __restrict__ ci = c + r * n;
    if (beta != 0.0f) {
      Vec8 old[NV];
      load_row(old, ci, n);
      for (std::size_t v = 0; v < NV; ++v) {
        acc[r][v] = beta * old[v] + acc[r][v];
      }
    }
    store_row(acc[r], ci, n);
  }
}

/// Rows in pairs while two rows' accumulators fit the registers.
template <std::size_t NV>
[[gnu::always_inline]] inline
void rows_nt(std::size_t m, std::size_t k, std::size_t n,
             const float* __restrict__ a, const float* __restrict__ bt,
             float* __restrict__ c, float beta) {
  std::size_t i = 0;
  if constexpr (NV <= 4) {
    for (; i + 2 <= m; i += 2) {
      rows_nt_block<NV, 2>(k, n, a + i * k, bt, c + i * n, beta);
    }
  }
  for (; i < m; ++i) rows_nt_block<NV, 1>(k, n, a + i * k, bt, c + i * n, beta);
}

/// Calls body(std::integral_constant<NV>) for NV = ceil(n / 8), 1..8.
template <typename Body>
[[gnu::always_inline]] inline void with_row_vecs(std::size_t n, Body&& body) {
  switch ((n + kLanes - 1) / kLanes) {
    case 1: body(std::integral_constant<std::size_t, 1>{}); break;
    case 2: body(std::integral_constant<std::size_t, 2>{}); break;
    case 3: body(std::integral_constant<std::size_t, 3>{}); break;
    case 4: body(std::integral_constant<std::size_t, 4>{}); break;
    case 5: body(std::integral_constant<std::size_t, 5>{}); break;
    case 6: body(std::integral_constant<std::size_t, 6>{}); break;
    case 7: body(std::integral_constant<std::size_t, 7>{}); break;
    default: body(std::integral_constant<std::size_t, 8>{}); break;
  }
}

/// Shared driver for gemm_nn_rows / gemm_tn_rows: B is read in place when
/// n fills whole vectors, else through a zero-padded copy in the pack arena.
[[gnu::always_inline]] inline
void rows_cacc_driver(std::size_t m, std::size_t k, std::size_t n,
                      const float* a, std::size_t a_row, std::size_t a_col,
                      const float* b, float* c, float beta) {
  with_row_vecs(n, [&](auto nv) __attribute__((always_inline)) {
    constexpr std::size_t NV = decltype(nv)::value;
    if (n == NV * kLanes) {
      rows_cacc<NV>(m, k, n, a, a_row, a_col, b, n, c, beta);
    } else {
      float* bp = t_scratch.b.ensure_floats(k * NV * kLanes);
      pad_b_rows<NV>(b, k, n, bp);
      rows_cacc<NV>(m, k, n, a, a_row, a_col, bp, NV * kLanes, c, beta);
    }
  });
}

/// Below this work volume the packing overhead outweighs the locality win;
/// both sides are bitwise identical, so the threshold is purely a perf
/// knob.
constexpr std::size_t kBlockedMinVolume = 32 * 1024;

/// Past the row kernels' reach, gemm_nn / gemm_tn take the reference loop
/// once at least 1/kRefZeroShare of A is exact zeros. Past a few zeros
/// nearly every kMR sliver holds one, so every tile runs the blend
/// microkernel at full cost, while the reference loop skips each zero
/// multiplier's whole row update. At the compact-MLP backward shapes (now
/// served by the row kernels) the reference loop won from a 15% zero share
/// up; below 10% the winner depended on where the zeros sat. A quarter
/// leaves margin above that; post-ReLU gradients are about half zeros,
/// weights and im2col patches have none. Both paths are bitwise identical,
/// so this is purely a perf knob.
constexpr std::size_t kRefZeroShare = 4;

/// True when at least 1/kRefZeroShare of the `count` entries of A are
/// exact zeros (-0.0f included, as in the reference loops' skip test).
bool zero_heavy(std::span<const float> a, std::size_t count) {
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < count; ++i) zeros += a[i] == 0.0f ? 1 : 0;
  return zeros * kRefZeroShare >= count;
}

}  // namespace

const GemmTuning& gemm_tuning() {
  static const GemmTuning tuning = derive_tuning();
  return tuning;
}

const char* gemm_isa() {
#if SKIPTRAIN_ISA_CLONES
  // The feature test the target_clones resolver makes.
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") ? "avx2" : "default";
#else
  return "default";
#endif
}

SKIPTRAIN_GEMM_CLONES
void gemm_nn_blocked(std::size_t m, std::size_t k, std::size_t n,
                     std::span<const float> a, std::span<const float> b,
                     std::span<float> c, float beta) {
  assert(k > 0 && a.size() >= m * k && b.size() >= k * n && c.size() >= m * n);
  gemm_cacc_blocked(
      m, k, n, c, beta,
      [&a, k](std::size_t ic, std::size_t pc, std::size_t mc, std::size_t kc,
              float* dst, std::uint8_t* zeros) {
        pack_a_rows(a.data(), k, ic, pc, mc, kc, dst, zeros);
      },
      [&b, n](std::size_t pc, std::size_t jc, std::size_t kc, std::size_t nc,
              float* dst) {
        pack_b_slivers(b.data() + pc * n + jc, n, kc, nc, dst);
      });
}

SKIPTRAIN_GEMM_CLONES
void gemm_tn_blocked(std::size_t m, std::size_t k, std::size_t n,
                     std::span<const float> a, std::span<const float> b,
                     std::span<float> c, float beta) {
  assert(k > 0 && a.size() >= k * m && b.size() >= k * n && c.size() >= m * n);
  gemm_cacc_blocked(
      m, k, n, c, beta,
      [&a, m](std::size_t ic, std::size_t pc, std::size_t mc, std::size_t kc,
              float* dst, std::uint8_t* zeros) {
        pack_a_cols(a.data(), m, ic, pc, mc, kc, dst, zeros);
      },
      [&b, n](std::size_t pc, std::size_t jc, std::size_t kc, std::size_t nc,
              float* dst) {
        pack_b_slivers(b.data() + pc * n + jc, n, kc, nc, dst);
      });
}

SKIPTRAIN_GEMM_CLONES
void gemm_nt_blocked(std::size_t m, std::size_t k, std::size_t n,
                     std::span<const float> a, std::span<const float> b,
                     std::span<float> c, float beta) {
  // The dot accumulators must span the whole k extent (the reference keeps
  // one register accumulator per element), so k is not blocked; instead
  // both operands are repacked per panel — B transposed into kNR slivers,
  // the current kMR rows of A interleaved — with the B panel width chosen
  // so the pack stays a few MB at most.
  const std::size_t panel_target = (2u << 20) / sizeof(float);
  std::size_t nc_max =
      std::max<std::size_t>(panel_target / std::max<std::size_t>(k, 1), kNR);
  nc_max = std::min<std::size_t>(nc_max & ~(kNR - 1), 256);
  float* bt = t_scratch.b.ensure_floats(k * (nc_max + kNR));
  float* ap = t_scratch.a.ensure_floats(k * kMR);
  for (std::size_t jc = 0; jc < n; jc += nc_max) {
    const std::size_t nc = std::min(nc_max, n - jc);
    // B transpose pack: sliver s row p holds B[jc+s*kNR .. +w][p], then
    // zero lanes.
    for (std::size_t j0 = 0; j0 < nc; j0 += kNR) {
      interleave_rows<kNR>(b.data() + (jc + j0) * k, k,
                           std::min(kNR, nc - j0), k,
                           bt + (j0 / kNR) * k * kNR);
    }
    for (std::size_t i0 = 0; i0 < m; i0 += kMR) {
      const std::size_t mr = std::min(kMR, m - i0);
      // A transpose pack for this row sliver: arow p = A[i0..i0+mr][p].
      interleave_rows<kMR>(a.data() + i0 * k, k, mr, k, ap);
      float* crow = c.data() + i0 * n + jc;
      for (std::size_t j0 = 0; j0 < nc; j0 += kNR) {
        const std::size_t nr = std::min(kNR, nc - j0);
        const float* bsliver = bt + (j0 / kNR) * k * kNR;
        if (mr == kMR && nr == kNR) {
          micro_nt<true>(kMR, kNR, k, ap, bsliver, crow + j0, n, beta);
        } else {
          micro_nt<false>(mr, nr, k, ap, bsliver, crow + j0, n, beta);
        }
      }
    }
  }
}

SKIPTRAIN_GEMM_CLONES
void pack_indexed_b(const IndexedB& b, std::size_t pc, std::size_t jc,
                    std::size_t kc, std::size_t nc, float* dst) {
  pack_b_indexed_slivers(b, pc, jc, kc, nc, dst);
}

SKIPTRAIN_GEMM_CLONES
void gemm_nn_rows(std::size_t m, std::size_t k, std::size_t n,
                  std::span<const float> a, std::span<const float> b,
                  std::span<float> c, float beta) {
  assert(gemm_rows_fit(k, n) && a.size() >= m * k && b.size() >= k * n &&
         c.size() >= m * n);
  rows_cacc_driver(m, k, n, a.data(), k, 1, b.data(), c.data(), beta);
}

SKIPTRAIN_GEMM_CLONES
void gemm_tn_rows(std::size_t m, std::size_t k, std::size_t n,
                  std::span<const float> a, std::span<const float> b,
                  std::span<float> c, float beta) {
  assert(gemm_rows_fit(k, n) && a.size() >= k * m && b.size() >= k * n &&
         c.size() >= m * n);
  rows_cacc_driver(m, k, n, a.data(), 1, m, b.data(), c.data(), beta);
}

SKIPTRAIN_GEMM_CLONES
void gemm_nt_rows(std::size_t m, std::size_t k, std::size_t n,
                  std::span<const float> a, std::span<const float> b,
                  std::span<float> c, float beta) {
  assert(gemm_rows_fit(k, n) && a.size() >= m * k && b.size() >= n * k &&
         c.size() >= m * n);
  with_row_vecs(n, [&](auto nv) __attribute__((always_inline)) {
    constexpr std::size_t NV = decltype(nv)::value;
    // B transpose pack in 8 x 8 blocks, as gemm_nt_blocked packs its
    // panels; the lanes past n are zero (see pad_b_rows).
    float* __restrict__ bt = t_scratch.b.ensure_floats(k * NV * kNR);
    for (std::size_t v = 0; v < NV; ++v) {
      interleave_rows<kNR>(b.data() + v * kNR * k, k,
                           std::min(kNR, n - v * kNR), k, bt + v * k * kNR);
    }
    rows_nt<NV>(m, k, n, a.data(), bt, c.data(), beta);
  });
}

bool gemm_rows_fit(std::size_t k, std::size_t n) {
  const std::size_t padded = (n + kLanes - 1) / kLanes * kLanes;
  return n > 0 && n <= kRowsMaxN && k <= kRowsMaxK &&
         k * padded <= kRowsMaxPanel;
}

// ---------------------------------------------------------------------------
// Public entry points (declared in tensor/ops.hpp)
// ---------------------------------------------------------------------------

namespace {

enum class GemmPath { kRef, kRows, kBlocked };

/// Telemetry tap at the dispatch layer: call and MAC volume and how many
/// calls the reference loops and the register-row kernels served, not
/// timing — per-call spans would dwarf the work at training's small shapes.
void note_gemm(std::size_t m, std::size_t k, std::size_t n, GemmPath path) {
  static const obs::Counter calls = obs::counter("gemm.calls");
  static const obs::Counter ref_calls = obs::counter("gemm.ref_calls");
  static const obs::Counter rows_calls = obs::counter("gemm.rows_calls");
  static const obs::Counter macs = obs::counter("gemm.macs");
  calls.add(1);
  if (path == GemmPath::kRef) ref_calls.add(1);
  if (path == GemmPath::kRows) rows_calls.add(1);
  macs.add(static_cast<std::uint64_t>(m) * k * n);
}

/// Dispatch rule shared by the C-accumulating variants. Past the row
/// kernels' reach, k == 0 must still apply beta to C, which only the
/// reference loops do.
GemmPath cacc_path(std::size_t m, std::size_t k, std::size_t n,
                   std::span<const float> a) {
  if (gemm_rows_fit(k, n)) return GemmPath::kRows;
  return k == 0 || n < 8 || m * k * n < kBlockedMinVolume ||
                 zero_heavy(a, m * k)
             ? GemmPath::kRef
             : GemmPath::kBlocked;
}

}  // namespace

void gemm_nn(std::size_t m, std::size_t k, std::size_t n,
             std::span<const float> a, std::span<const float> b,
             std::span<float> c, float beta) {
  assert(a.size() >= m * k && b.size() >= k * n && c.size() >= m * n);
  const GemmPath path = cacc_path(m, k, n, a);
  note_gemm(m, k, n, path);
  switch (path) {
    case GemmPath::kRef: gemm_nn_ref(m, k, n, a, b, c, beta); break;
    case GemmPath::kRows: gemm_nn_rows(m, k, n, a, b, c, beta); break;
    case GemmPath::kBlocked: gemm_nn_blocked(m, k, n, a, b, c, beta); break;
  }
}

void gemm_nt(std::size_t m, std::size_t k, std::size_t n,
             std::span<const float> a, std::span<const float> b,
             std::span<float> c, float beta) {
  assert(a.size() >= m * k && b.size() >= n * k && c.size() >= m * n);
  GemmPath path = GemmPath::kBlocked;
  if (gemm_rows_fit(k, n)) {
    path = GemmPath::kRows;
  } else if (k == 0 || n < 4 || k > 65536 || m * k * n < kBlockedMinVolume) {
    path = GemmPath::kRef;
  }
  note_gemm(m, k, n, path);
  switch (path) {
    case GemmPath::kRef: gemm_nt_ref(m, k, n, a, b, c, beta); break;
    case GemmPath::kRows: gemm_nt_rows(m, k, n, a, b, c, beta); break;
    case GemmPath::kBlocked: gemm_nt_blocked(m, k, n, a, b, c, beta); break;
  }
}

void gemm_tn(std::size_t m, std::size_t k, std::size_t n,
             std::span<const float> a, std::span<const float> b,
             std::span<float> c, float beta) {
  assert(a.size() >= k * m && b.size() >= k * n && c.size() >= m * n);
  const GemmPath path = cacc_path(m, k, n, a);
  note_gemm(m, k, n, path);
  switch (path) {
    case GemmPath::kRef: gemm_tn_ref(m, k, n, a, b, c, beta); break;
    case GemmPath::kRows: gemm_tn_rows(m, k, n, a, b, c, beta); break;
    case GemmPath::kBlocked: gemm_tn_blocked(m, k, n, a, b, c, beta); break;
  }
}

SKIPTRAIN_GEMM_CLONES
void gemm_nn_indexed(std::size_t m, std::size_t k, std::size_t n,
                     std::span<const float> a, const IndexedB& b,
                     std::span<float> c, float beta) {
  assert(k > 0 && a.size() >= m * k && c.size() >= m * n);
  note_gemm(m, k, n, GemmPath::kBlocked);
  gemm_cacc_blocked(
      m, k, n, c, beta,
      [&a, k](std::size_t ic, std::size_t pc, std::size_t mc, std::size_t kc,
              float* dst, std::uint8_t* zeros) {
        pack_a_rows(a.data(), k, ic, pc, mc, kc, dst, zeros);
      },
      [&b](std::size_t pc, std::size_t jc, std::size_t kc, std::size_t nc,
           float* dst) {
        pack_b_indexed_slivers(b, pc, jc, kc, nc, dst);
      });
}

}  // namespace skiptrain::tensor
