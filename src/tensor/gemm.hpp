// Blocked, packed GEMM kernel layer behind the gemm_nn/gemm_nt/gemm_tn
// entry points of tensor/ops.hpp.
//
// Bit-identity contract
// ---------------------
// The seed triple-loop kernels are retained verbatim below as
// `gemm_*_ref` and serve as verification oracles: for every input the
// blocked kernels must produce bitwise identical C. The blocked kernels
// earn this by visiting each output element's k-dimension in exactly the
// seed's sequential order:
//
//   * gemm_nn / gemm_tn accumulate directly into C (beta applied once,
//     before the first k-block touches an element; k-blocks then visit p
//     in ascending order, carrying the element through registers within a
//     block and through C memory across blocks). The seed's
//     skip-zero-multiplier branch is preserved per (element-of-A, p).
//   * gemm_nt keeps one register accumulator per output element across
//     the whole k extent (fresh dot, p ascending) and only then combines
//     with beta — the same op sequence as the reference inner loop.
//
// Every accumulation is written in the same `acc += a * b` expression
// shape as the reference loops. FP contraction is pinned off project-wide
// (-ffp-contract=off in CMakeLists.txt), so no build fuses a product and
// its sum into an FMA, whatever -march it targets.
//
// What the blocked kernels add is purely locality and ILP: B panels are
// packed into dense aligned scratch sized from L1/L2 (measured once at
// startup), the microkernel holds a 4x8 register tile, and restrict-
// qualified unit-stride inner loops let the compiler vectorize.
//
// ISA clones: the reference and blocked kernels are each compiled twice,
// for avx2 and for baseline x86-64, and the CPU picks the clone at load
// time (gemm_isa() names it). Both clones run the same operations in the
// same order for every output element, so every clone gives identical
// bits, and the contract above holds across hosts.
#pragma once

#include <cstddef>
#include <span>

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
// Reference kernels: the seed loops, kept for verification and as the
// small-shape fallback. Signatures mirror tensor/ops.hpp.
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

}  // namespace skiptrain::tensor
