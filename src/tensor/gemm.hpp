// GEMM kernel layer behind the gemm_nn/gemm_nt/gemm_tn entry points of
// tensor/ops.hpp: register-row kernels for the small-n shapes the compact
// MLPs run, blocked and packed kernels for large shapes, and the seed
// loops for what neither serves.
//
// Bit-identity contract
// ---------------------
// The seed triple-loop kernels are retained verbatim below as
// `gemm_*_ref`. They serve as verification oracles, and the dispatch
// still routes small shapes past the row kernels' reach and, for nn/tn,
// zero-heavy A to them. For every input the blocked and row kernels must
// produce bitwise identical C. They earn this by visiting each output
// element's k-dimension in exactly the seed's sequential order:
//
//   * gemm_nn / gemm_tn accumulate directly into C (beta applied once,
//     before the first k step touches an element; p then runs in
//     ascending order, carrying the element through registers within a
//     block and through C memory across blocks). The seed's
//     skip-zero-multiplier branch is preserved per (element-of-A, p): the
//     blocked kernels blend, the row kernels compact each row's nonzero
//     multipliers before the k walk.
//   * gemm_nt keeps one register accumulator per output element across
//     the whole k extent (fresh dot, p ascending) and only then combines
//     with beta — the same op sequence as the reference inner loop.
//
// Every accumulation is written in the same `acc += a * b` expression
// shape as the reference loops. FP contraction is pinned off project-wide
// (-ffp-contract=off in CMakeLists.txt), so no build fuses a product and
// its sum into an FMA, whatever -march it targets.
//
// What the other kernels add is purely locality and ILP. The blocked
// kernels pack B panels into dense aligned scratch sized from L1/L2
// (measured once at startup) and hold a 4x8 tile of C in four 8-float
// vector registers (util::Vec8). Edge tiles (fewer than 4 rows or 8
// columns left) run the same full-width kernels over zero-padded slivers
// and store only their live part, so no shape falls to a scalar loop;
// a zero-padded row never sets its sliver's zero flag. The row kernels
// hold one C row of up to 64 floats in vector registers and read an
// L1-resident B (transposed for nt, padded to whole vectors where n is not
// a multiple of 8).
//
// ISA clones: every kernel is compiled twice, for avx2 and for baseline
// x86-64, and the CPU picks the clone at load time (gemm_isa() names it).
// Both clones run the same operations in the same order for every output
// element, so every clone gives identical bits, and the contract above
// holds across hosts.
#pragma once

#include <cstddef>
#include <span>

#include "tensor/ops.hpp"

namespace skiptrain::tensor {

/// Cache-derived blocking parameters, computed once per process.
struct GemmTuning {
  std::size_t l1d_bytes;  // detected (or default 32 KiB)
  std::size_t l2_bytes;   // detected (or default 1 MiB)
  std::size_t mc;         // A rows per L2-resident block
  std::size_t kc;         // k depth per packed B panel (panel row hot in L1)
  std::size_t nc;         // B columns per packed panel
};

/// Process-wide tuning derived from L1d/L2 at first use.
[[nodiscard]] const GemmTuning& gemm_tuning();

/// The clone the GEMM kernels run in this process: "avx2" on an AVX2 host
/// of a build with ISA clones (util/isa.hpp), otherwise "default". Both
/// give identical bits; only the speed differs.
[[nodiscard]] const char* gemm_isa();

// ---------------------------------------------------------------------------
// Reference kernels: the seed loops, kept for verification and for the
// shapes neither the row nor the blocked kernels serve (see gemm.cpp).
// Signatures mirror tensor/ops.hpp.
// ---------------------------------------------------------------------------

/// C[m,n] = A[m,k] * B[k,n] + beta * C  (seed i-k-j loop)
void gemm_nn_ref(std::size_t m, std::size_t k, std::size_t n,
                 std::span<const float> a, std::span<const float> b,
                 std::span<float> c, float beta = 0.0f);

/// C[m,n] = A[m,k] * B[n,k]^T + beta * C  (seed dot loop)
void gemm_nt_ref(std::size_t m, std::size_t k, std::size_t n,
                 std::span<const float> a, std::span<const float> b,
                 std::span<float> c, float beta = 0.0f);

/// C[m,n] = A[k,m]^T * B[k,n] + beta * C  (seed outer-product loop)
void gemm_tn_ref(std::size_t m, std::size_t k, std::size_t n,
                 std::span<const float> a, std::span<const float> b,
                 std::span<float> c, float beta = 0.0f);

// ---------------------------------------------------------------------------
// Blocked kernels without the dispatch, so tests and benchmarks can reach
// them on inputs the dispatch sends to the reference loops (e.g. A with
// many zeros). Require k > 0: with k == 0 they leave C unscaled.
// ---------------------------------------------------------------------------

void gemm_nn_blocked(std::size_t m, std::size_t k, std::size_t n,
                     std::span<const float> a, std::span<const float> b,
                     std::span<float> c, float beta = 0.0f);

void gemm_tn_blocked(std::size_t m, std::size_t k, std::size_t n,
                     std::span<const float> a, std::span<const float> b,
                     std::span<float> c, float beta = 0.0f);

void gemm_nt_blocked(std::size_t m, std::size_t k, std::size_t n,
                     std::span<const float> a, std::span<const float> b,
                     std::span<float> c, float beta = 0.0f);

/// Columns per packed B sliver of the blocked kernels (their register
/// tile's width).
inline constexpr std::size_t kGemmSliverCols = 8;

/// The kGemmSliverCols-column slivers the blocked kernels pack from rows
/// [pc, pc + kc) and columns [jc, jc + nc) of an IndexedB (tensor/ops.hpp):
/// with w = kGemmSliverCols, sliver s holds row p of columns
/// [jc + s * w, +w) at dst[(s * kc + p) * w + jj], an edge sliver with
/// zeros past its live lanes. Exposed so tests can check the panels
/// against a materialised B.
void pack_indexed_b(const IndexedB& b, std::size_t pc, std::size_t jc,
                    std::size_t kc, std::size_t nc, float* dst);

// ---------------------------------------------------------------------------
// Register-row kernels without the dispatch. Each holds one C row in vector
// registers and walks k in ascending order; gemm_nn_rows / gemm_tn_rows
// visit only the row's nonzero A multipliers, gemm_nt_rows reads B through
// a transposed copy. Require gemm_rows_fit(k, n); any k, m >= 0 and beta
// (k == 0 applies beta to C, as the reference loops do).
// ---------------------------------------------------------------------------

/// True when the row kernels take (k, n): 1 <= n <= 64, k <= 256, and
/// k x n (n rounded up to a multiple of 8) at most 8192 floats, so the B
/// panel the kernels walk stays in L1.
[[nodiscard]] bool gemm_rows_fit(std::size_t k, std::size_t n);

void gemm_nn_rows(std::size_t m, std::size_t k, std::size_t n,
                  std::span<const float> a, std::span<const float> b,
                  std::span<float> c, float beta = 0.0f);

void gemm_nt_rows(std::size_t m, std::size_t k, std::size_t n,
                  std::span<const float> a, std::span<const float> b,
                  std::span<float> c, float beta = 0.0f);

void gemm_tn_rows(std::size_t m, std::size_t k, std::size_t n,
                  std::span<const float> a, std::span<const float> b,
                  std::span<float> c, float beta = 0.0f);

}  // namespace skiptrain::tensor
