// Blocked, packed GEMM kernels (see gemm.hpp for the bit-identity
// contract). The public gemm_nn/gemm_nt/gemm_tn entry points of
// tensor/ops.hpp dispatch between the seed reference loops (tiny shapes,
// degenerate dims, and for nn/tn an A that is a quarter or more zeros) and
// the blocked kernels below; both produce bitwise identical C, so the
// dispatch thresholds are pure performance knobs.
//
// Kernel structure: B panels and A blocks are both repacked into
// register-tile-wide slivers (kNR and kMR contiguous strips per k step),
// so the microkernel inner loops are pure unit-stride vector code. The
// reference loops' skip-zero-multiplier branch is honored by scanning
// each A sliver for zeros while packing it: zero-free slivers (the common
// case — model parameters and activations are continuous values) run a
// branch-free microkernel, slivers holding zeros (e.g. post-ReLU
// gradients in gemm_tn) run a blend microkernel whose
// `acc = av == 0 ? acc : acc + av*b` select reproduces the skip bitwise.
//
// ISA dispatch: the six kernels (gemm_*_ref and gemm_*_blocked) carry
// SKIPTRAIN_GEMM_CLONES (util/isa.hpp), one avx2 and one default clone
// picked at load time. The packers, tile loads and stores, microkernels and
// the C-accumulating driver are force-inlined, so each hot loop is compiled
// inside each clone rather than once at the default target. Neither the expressions nor the loop orders differ between
// clones, and contraction is off project-wide, so all clones give the same
// bits.
#include "tensor/gemm.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
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
constexpr std::size_t kNR = 8;  // microkernel register-tile columns

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
  util::AlignedArena b;                // packed B slivers
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

/// Shared driver for the two C-accumulating variants; PackA packs the
/// (ic, pc, mc, kc) block of A into slivers + zero flags.
template <typename PackA>
[[gnu::always_inline]] inline
void gemm_cacc_blocked(std::size_t m, std::size_t k, std::size_t n,
                       std::span<const float> b, std::span<float> c,
                       float beta, PackA&& pack_a) {
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
      pack_b_slivers(b.data() + pc * n + jc, n, kc, nc, bp);
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

/// Below this work volume the packing overhead outweighs the locality win;
/// both sides are bitwise identical, so the threshold is purely a perf
/// knob.
constexpr std::size_t kBlockedMinVolume = 32 * 1024;

/// gemm_nn / gemm_tn take the reference loop once at least 1/kRefZeroShare
/// of A is exact zeros. Past a few zeros nearly every kMR sliver holds one,
/// so every tile runs the blend microkernel at full cost, while the
/// reference loop skips each zero multiplier's whole row update. At the
/// compact-MLP backward shapes the reference loop won from a 15% zero
/// share up, whether the zeros were scattered or whole dead units; below
/// 10% the winner depends on where they sit (crossover table in README,
/// "Performance"). A quarter leaves margin above that; post-ReLU gradients
/// are about half zeros, weights and im2col patches have none. Both paths
/// are bitwise identical, so this is purely a perf knob.
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
      m, k, n, b, c, beta,
      [&a, k](std::size_t ic, std::size_t pc, std::size_t mc, std::size_t kc,
              float* dst, std::uint8_t* zeros) {
        pack_a_rows(a.data(), k, ic, pc, mc, kc, dst, zeros);
      });
}

SKIPTRAIN_GEMM_CLONES
void gemm_tn_blocked(std::size_t m, std::size_t k, std::size_t n,
                     std::span<const float> a, std::span<const float> b,
                     std::span<float> c, float beta) {
  assert(k > 0 && a.size() >= k * m && b.size() >= k * n && c.size() >= m * n);
  gemm_cacc_blocked(
      m, k, n, b, c, beta,
      [&a, m](std::size_t ic, std::size_t pc, std::size_t mc, std::size_t kc,
              float* dst, std::uint8_t* zeros) {
        pack_a_cols(a.data(), m, ic, pc, mc, kc, dst, zeros);
      });
}

// ---------------------------------------------------------------------------
// Public entry points (declared in tensor/ops.hpp)
// ---------------------------------------------------------------------------

namespace {

/// Telemetry tap at the dispatch layer: call and MAC volume and how many
/// calls the reference loops served, not timing — per-call spans would
/// dwarf the work at training's small shapes.
void note_gemm(std::size_t m, std::size_t k, std::size_t n, bool ref) {
  static const obs::Counter calls = obs::counter("gemm.calls");
  static const obs::Counter ref_calls = obs::counter("gemm.ref_calls");
  static const obs::Counter macs = obs::counter("gemm.macs");
  calls.add(1);
  if (ref) ref_calls.add(1);
  macs.add(static_cast<std::uint64_t>(m) * k * n);
}

/// Dispatch rule shared by the C-accumulating variants. k == 0 must still
/// apply beta to C, which only the reference loops do.
bool cacc_takes_ref(std::size_t m, std::size_t k, std::size_t n,
                    std::span<const float> a) {
  return k == 0 || n < 8 || m * k * n < kBlockedMinVolume ||
         zero_heavy(a, m * k);
}

}  // namespace

void gemm_nn(std::size_t m, std::size_t k, std::size_t n,
             std::span<const float> a, std::span<const float> b,
             std::span<float> c, float beta) {
  assert(a.size() >= m * k && b.size() >= k * n && c.size() >= m * n);
  const bool ref = cacc_takes_ref(m, k, n, a);
  note_gemm(m, k, n, ref);
  if (ref) {
    gemm_nn_ref(m, k, n, a, b, c, beta);
  } else {
    gemm_nn_blocked(m, k, n, a, b, c, beta);
  }
}

void gemm_nt(std::size_t m, std::size_t k, std::size_t n,
             std::span<const float> a, std::span<const float> b,
             std::span<float> c, float beta) {
  assert(a.size() >= m * k && b.size() >= n * k && c.size() >= m * n);
  const bool ref =
      k == 0 || n < 4 || k > 65536 || m * k * n < kBlockedMinVolume;
  note_gemm(m, k, n, ref);
  if (ref) {
    gemm_nt_ref(m, k, n, a, b, c, beta);
  } else {
    gemm_nt_blocked(m, k, n, a, b, c, beta);
  }
}

void gemm_tn(std::size_t m, std::size_t k, std::size_t n,
             std::span<const float> a, std::span<const float> b,
             std::span<float> c, float beta) {
  assert(a.size() >= k * m && b.size() >= k * n && c.size() >= m * n);
  const bool ref = cacc_takes_ref(m, k, n, a);
  note_gemm(m, k, n, ref);
  if (ref) {
    gemm_tn_ref(m, k, n, a, b, c, beta);
  } else {
    gemm_tn_blocked(m, k, n, a, b, c, beta);
  }
}

}  // namespace skiptrain::tensor
