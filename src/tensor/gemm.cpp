// GEMM kernels (see gemm.hpp for the bit-identity contract). The public
// gemm_nn/gemm_nt/gemm_tn entry points of tensor/ops.hpp dispatch among
// three kernel families, all bitwise identical, so the dispatch rules are
// pure performance knobs:
//
//   * register-row kernels, for every shape with n <= 64 whose B panel
//     fits L1 (the compact-MLP training and evaluation GEMMs): one C row in
//     vector registers, A's zero multipliers compacted away per row;
//   * blocked kernels, for larger zero-free shapes (the GN-LeNet
//     convolutions and wide Linear layers), and for gemm_nt with a few
//     rows over whole-vector columns;
//   * the seed reference loops, for what is left: small or degenerate
//     shapes past the row kernels' reach, and for nn/tn an A that is a
//     quarter or more zeros.
//
// Blocked structure: B panels and A blocks are both repacked into
// register-tile-wide slivers (kNR and kMR contiguous strips per k step),
// so the microkernel inner loops are pure unit-stride vector code. The
// driver takes both packers as callbacks: B comes from a row-major matrix
// or, for gemm_nn_indexed, through offset tables (a convolution's patch
// matrix read straight from the padded image). The
// reference loops' skip-zero-multiplier branch is honored by scanning
// each A sliver for zeros while packing it: zero-free slivers (the common
// case — model parameters and activations are continuous values) run a
// branch-free microkernel, slivers holding zeros (e.g. post-ReLU
// gradients in gemm_tn) run a blend microkernel whose
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

// Register tile: 4x8 accumulators are 8 SSE2 registers in the default
// clone, half the register file, and 4 of the 16 ymm registers in the avx2
// clone. One tile for every clone keeps one operation order per element.
constexpr std::size_t kMR = 4;  // microkernel register-tile rows
constexpr std::size_t kNR = kGemmSliverCols;  // register-tile columns

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
// is one contiguous strip. A blocks: sliver s holds the kMR rows
// [i0, i0 + kMR) interleaved per p (dst[s * depth * kMR + p * kMR + r]),
// so the per-p multiplier loads are contiguous too. Edge slivers pack
// only their live lanes; the microkernels never read past mr/nr.
// ---------------------------------------------------------------------------

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
        std::memcpy(out + p * kNR, in + p * ld, kNR * sizeof(float));
      }
    } else {
      for (std::size_t p = 0; p < depth; ++p) {
        std::memcpy(out + p * kNR, in + p * ld, w * sizeof(float));
      }
    }
  }
}

/// Packs rows [pc, pc + depth) x columns [jc, jc + nc) of an IndexedB into
/// kNR-column slivers. A full sliver over contiguous offsets is one kNR-
/// float copy per row (a stride-1 conv's positions within an output row);
/// any other sliver gathers its lanes through the column table.
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
        std::memcpy(out + p * kNR, in + rows[p], kNR * sizeof(float));
      }
    } else {
      for (std::size_t p = 0; p < depth; ++p) {
        const float* __restrict__ in = src + rows[p];
        for (std::size_t jj = 0; jj < w; ++jj) out[p * kNR + jj] = in[cols[jj]];
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
    float* __restrict__ out = dst + (i0 / kMR) * kc * kMR;
    bool any_zero = false;
    for (std::size_t r = 0; r < w; ++r) {
      const float* __restrict__ src = a + (ic + i0 + r) * lda + pc;
      float* __restrict__ o = out + r;
      for (std::size_t p = 0; p < kc; ++p) {
        const float v = src[p];
        o[p * kMR] = v;
        any_zero |= (v == 0.0f);
      }
    }
    zeros[i0 / kMR] = any_zero ? 1 : 0;
  }
}

/// Packs A[pc..pc+kc, ic..ic+mc] of a row-major [k, m] matrix (lda == m —
/// the gemm_tn layout) into kMR-row slivers with zero flags.
[[gnu::always_inline]] inline
void pack_a_cols(const float* __restrict__ a, std::size_t lda, std::size_t ic,
                 std::size_t pc, std::size_t mc, std::size_t kc,
                 float* __restrict__ dst, std::uint8_t* __restrict__ zeros) {
  for (std::size_t i0 = 0; i0 < mc; i0 += kMR) {
    const std::size_t w = std::min(kMR, mc - i0);
    float* __restrict__ out = dst + (i0 / kMR) * kc * kMR;
    bool any_zero = false;
    for (std::size_t p = 0; p < kc; ++p) {
      const float* __restrict__ src = a + (pc + p) * lda + ic + i0;
      float* __restrict__ o = out + p * kMR;
      for (std::size_t r = 0; r < w; ++r) {
        const float v = src[r];
        o[r] = v;
        any_zero |= (v == 0.0f);
      }
    }
    zeros[i0 / kMR] = any_zero ? 1 : 0;
  }
}

// ---------------------------------------------------------------------------
// Microkernels. All operands are packed slivers: A row p at ap + p * kMR,
// B row p at bp + p * kNR.
// ---------------------------------------------------------------------------

template <bool kFull>
[[gnu::always_inline]] inline
void load_c_tile(float (&acc)[kMR][kNR], std::size_t mr, std::size_t nr,
                 const float* __restrict__ c, std::size_t ldc, float beta,
                 bool first_block) {
  const std::size_t rows = kFull ? kMR : mr;
  const std::size_t cols = kFull ? kNR : nr;
  if (!first_block || beta == 1.0f) {
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t j = 0; j < cols; ++j) acc[r][j] = c[r * ldc + j];
    }
  } else if (beta == 0.0f) {
    // Write-only C: never read (it may be uninitialized or NaN-poisoned).
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t j = 0; j < cols; ++j) acc[r][j] = 0.0f;
    }
  } else {
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t j = 0; j < cols; ++j) acc[r][j] = c[r * ldc + j] * beta;
    }
  }
}

template <bool kFull>
[[gnu::always_inline]] inline
void store_c_tile(const float (&acc)[kMR][kNR], std::size_t mr, std::size_t nr,
                  float* __restrict__ c, std::size_t ldc) {
  const std::size_t rows = kFull ? kMR : mr;
  const std::size_t cols = kFull ? kNR : nr;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t j = 0; j < cols; ++j) c[r * ldc + j] = acc[r][j];
  }
}

/// C-accumulating tile for gemm_nn / gemm_tn, zero-free A sliver: the
/// reference skip branch can never fire, so the plain fused loop is
/// bitwise identical and fully vectorizable.
[[gnu::always_inline]] inline
void micro_cacc_fast(std::size_t kc, const float* __restrict__ ap,
                     const float* __restrict__ bp, float* __restrict__ c,
                     std::size_t ldc, float beta, bool first_block) {
  float acc[kMR][kNR];
  load_c_tile<true>(acc, kMR, kNR, c, ldc, beta, first_block);
  for (std::size_t p = 0; p < kc; ++p) {
    const float* __restrict__ arow = ap + p * kMR;
    const float* __restrict__ brow = bp + p * kNR;
    for (std::size_t r = 0; r < kMR; ++r) {
      const float av = arow[r];
      for (std::size_t j = 0; j < kNR; ++j) acc[r][j] += av * brow[j];
    }
  }
  store_c_tile<true>(acc, kMR, kNR, c, ldc);
}

/// C-accumulating tile for A slivers that DO hold zeros (and for edge
/// tiles): the select keeps the old accumulator when av == 0, which is
/// bitwise the reference's skip (an av of exactly zero contributes not
/// even a sign flip), and if-converts to a vector blend.
template <bool kFull>
[[gnu::always_inline]] inline
void micro_cacc_guard(std::size_t mr, std::size_t nr, std::size_t kc,
                      const float* __restrict__ ap,
                      const float* __restrict__ bp, float* __restrict__ c,
                      std::size_t ldc, float beta, bool first_block) {
  const std::size_t rows = kFull ? kMR : mr;
  const std::size_t cols = kFull ? kNR : nr;
  float acc[kMR][kNR];
  load_c_tile<kFull>(acc, mr, nr, c, ldc, beta, first_block);
  for (std::size_t p = 0; p < kc; ++p) {
    const float* __restrict__ arow = ap + p * kMR;
    const float* __restrict__ brow = bp + p * kNR;
    for (std::size_t r = 0; r < rows; ++r) {
      const float av = arow[r];
      for (std::size_t j = 0; j < cols; ++j) {
        acc[r][j] = (av == 0.0f) ? acc[r][j] : acc[r][j] + av * brow[j];
      }
    }
  }
  store_c_tile<kFull>(acc, mr, nr, c, ldc);
}

/// Register tile for gemm_nt: fresh dot accumulators over the whole k
/// extent (p ascending — the reference op sequence), combined with beta
/// only at the end. No zero skip: the reference dot loop has none.
template <bool kFull>
[[gnu::always_inline]] inline
void micro_nt(std::size_t mr, std::size_t nr, std::size_t k,
              const float* __restrict__ ap, const float* __restrict__ bp,
              float* __restrict__ c, std::size_t ldc, float beta) {
  const std::size_t rows = kFull ? kMR : mr;
  const std::size_t cols = kFull ? kNR : nr;
  float acc[kMR][kNR] = {};
  for (std::size_t p = 0; p < k; ++p) {
    const float* __restrict__ arow = ap + p * kMR;
    const float* __restrict__ brow = bp + p * kNR;
    for (std::size_t r = 0; r < rows; ++r) {
      const float av = arow[r];
      for (std::size_t j = 0; j < cols; ++j) acc[r][j] += av * brow[j];
    }
  }
  if (beta == 0.0f) {
    store_c_tile<kFull>(acc, mr, nr, c, ldc);
  } else {
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t j = 0; j < cols; ++j) {
        c[r * ldc + j] = beta * c[r * ldc + j] + acc[r][j];
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Blocked drivers
// ---------------------------------------------------------------------------

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
            const std::size_t nr = std::min(kNR, nc - j0);
            const float* bsliver = bp + (j0 / kNR) * kc * kNR;
            if (mr == kMR && nr == kNR) {
              if (has_zero) {
                micro_cacc_guard<true>(kMR, kNR, kc, asliver, bsliver,
                                       crow + j0, n, beta, first);
              } else {
                micro_cacc_fast(kc, asliver, bsliver, crow + j0, n, beta,
                                first);
              }
            } else {
              micro_cacc_guard<false>(mr, nr, kc, asliver, bsliver, crow + j0,
                                      n, beta, first);
            }
          }
        }
      }
    }
  }
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
    // B transpose pack: sliver s row p holds B[jc+s*kNR .. +w][p].
    for (std::size_t j0 = 0; j0 < nc; j0 += kNR) {
      const std::size_t w = std::min(kNR, nc - j0);
      float* __restrict__ out = bt + (j0 / kNR) * k * kNR;
      for (std::size_t jj = 0; jj < w; ++jj) {
        const float* __restrict__ brow = b.data() + (jc + j0 + jj) * k;
        float* __restrict__ o = out + jj;
        for (std::size_t p = 0; p < k; ++p) o[p * kNR] = brow[p];
      }
    }
    for (std::size_t i0 = 0; i0 < m; i0 += kMR) {
      const std::size_t mr = std::min(kMR, m - i0);
      // A transpose pack for this row sliver: arow p = A[i0..i0+mr][p].
      for (std::size_t r = 0; r < mr; ++r) {
        const float* __restrict__ src = a.data() + (i0 + r) * k;
        float* __restrict__ o = ap + r;
        for (std::size_t p = 0; p < k; ++p) o[p * kMR] = src[p];
      }
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

// ---------------------------------------------------------------------------
// Register-row kernels: one C row of n <= kRowsMaxN floats lives in
// ceil(n / 8) vectors of 8 lanes for the whole k walk, so each output
// element sees the reference's op sequence with no per-tile C traffic and
// no A packing. Vec8 (util/isa.hpp) is a GCC vector type; the helpers
// take vectors by reference only and are force-inlined.
// ---------------------------------------------------------------------------

using util::Vec8;
using util::Vec8Unaligned;
constexpr std::size_t kLanes = 8;
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
      acc[v] = *reinterpret_cast<const Vec8Unaligned*>(c + v * kLanes);
    } else {
      float tail[kLanes] = {};
      std::copy(c + v * kLanes, c + v * kLanes + n % kLanes, tail);
      acc[v] = *reinterpret_cast<const Vec8Unaligned*>(tail);
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
      *reinterpret_cast<Vec8Unaligned*>(c + v * kLanes) = acc[v];
    } else {
      float tail[kLanes];
      *reinterpret_cast<Vec8Unaligned*>(tail) = acc[v];
      std::copy(tail, tail + n % kLanes, c + v * kLanes);
    }
  }
}

/// B row p's vector v, at any float address.
[[gnu::always_inline]] inline const Vec8Unaligned& b_vec(const float* p) {
  return *reinterpret_cast<const Vec8Unaligned*>(p);
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
        acc[v] = acc[v] + x * b_vec(bp + v * kLanes);
      }
    }
    store_row(acc, ci, n);
  }
}

/// gemm_nt rows over bt, B transposed to [k, NV * 8]: a fresh dot per
/// element (p ascending, no zero skip, as the reference dot loop), then
/// combined as `beta * C + acc`, or stored alone for beta == 0.
template <std::size_t NV>
[[gnu::always_inline]] inline
void rows_nt(std::size_t m, std::size_t k, std::size_t n,
             const float* __restrict__ a, const float* __restrict__ bt,
             float* __restrict__ c, float beta) {
  constexpr std::size_t w = NV * kLanes;
  for (std::size_t i = 0; i < m; ++i) {
    const float* __restrict__ ai = a + i * k;
    Vec8 acc[NV] = {};
    for (std::size_t p = 0; p < k; ++p) {
      const float x = ai[p];
      const float* __restrict__ bp = bt + p * w;
      for (std::size_t v = 0; v < NV; ++v) {
        acc[v] = acc[v] + x * b_vec(bp + v * kLanes);
      }
    }
    float* __restrict__ ci = c + i * n;
    if (beta != 0.0f) {
      Vec8 old[NV];
      load_row(old, ci, n);
      for (std::size_t v = 0; v < NV; ++v) acc[v] = beta * old[v] + acc[v];
    }
    store_row(acc, ci, n);
  }
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
    constexpr std::size_t w = NV * kLanes;
    // B transpose pack: row p holds B[0..n)[p], then zero pad lanes (see
    // pad_b_rows). The strided side is the loads, which issue faster than
    // stores.
    float* __restrict__ bt = t_scratch.b.ensure_floats(k * w);
    for (std::size_t p = 0; p < k; ++p) {
      float* __restrict__ row = bt + p * w;
      for (std::size_t j = 0; j < n; ++j) row[j] = b[j * k + p];
      std::fill(row + n, row + w, 0.0f);
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
  // A few rows over whole-vector columns, at a volume large enough for
  // the blocked kernel: there the 4x8 tile runs the same vector operations
  // as the row kernel and neither wins clearly (the forward's first layer,
  // 16x64x48 and 16x64x32), so those shapes keep the blocked path.
  const bool stays_blocked =
      m < 32 && n % kLanes == 0 && m * k * n >= kBlockedMinVolume;
  GemmPath path = GemmPath::kBlocked;
  if (gemm_rows_fit(k, n) && !stays_blocked) {
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
