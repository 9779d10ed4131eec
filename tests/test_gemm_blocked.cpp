// Bit-identity of the blocked and register-row GEMM kernels against the
// retained seed loops (gemm_*_ref). The contract is exact: for every input
// — including degenerate dims, non-square panels, every beta case, A with
// zeros (the skip-zero branch), and NaN-poisoned C with beta == 0 — the
// kernels must produce bitwise identical C, whether reached through the
// dispatching entry points or directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "nn/conv2d.hpp"
#include "nn/model_zoo.hpp"
#include "obs/registry.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "util/isa.hpp"
#include "util/rng.hpp"

namespace skiptrain::tensor {
namespace {

void expect_bitwise_equal(const std::vector<float>& got,
                          const std::vector<float>& want, const char* what,
                          std::size_t m, std::size_t k, std::size_t n,
                          float beta) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << what << " m=" << m << " k=" << k << " n=" << n << " beta=" << beta
        << " at " << i << ": " << got[i] << " vs " << want[i];
  }
}

/// Runs all three variants at (m, k, n) x beta in {0, 1, 0.5} and compares
/// dispatched and blocked vs reference bitwise. `sparsify` zeroes every
/// 8th entry of A: enough that nearly every packed A sliver holds a zero
/// (the blend microkernel that reproduces the skip-zero-multiplier
/// branch), yet below the share at which gemm_nn / gemm_tn dispatch to
/// the reference loop.
void check_shape(std::size_t m, std::size_t k, std::size_t n,
                 std::uint64_t seed, bool sparsify) {
  util::Rng rng(seed);
  std::vector<float> a(m * k);  // same extent whichever layout reads it
  std::vector<float> b(k * n);
  if (!a.empty()) rng.fill_normal(a, 0.0f, 1.0f);
  if (!b.empty()) rng.fill_normal(b, 0.0f, 1.0f);
  if (sparsify) {
    for (std::size_t i = 0; i < a.size(); i += 8) a[i] = 0.0f;
  }
  std::vector<float> c_init(m * n);
  if (!c_init.empty()) rng.fill_normal(c_init, 0.0f, 1.0f);

  for (const float beta : {0.0f, 1.0f, 0.5f}) {
    {
      std::vector<float> c = c_init, ref = c_init;
      gemm_nn(m, k, n, a, b, c, beta);
      gemm_nn_ref(m, k, n, a, b, ref, beta);
      expect_bitwise_equal(c, ref, "gemm_nn", m, k, n, beta);
      if (k > 0) {
        c = c_init;
        gemm_nn_blocked(m, k, n, a, b, c, beta);
        expect_bitwise_equal(c, ref, "gemm_nn_blocked", m, k, n, beta);
      }
    }
    {
      std::vector<float> c = c_init, ref = c_init;
      gemm_nt(m, k, n, a, b, c, beta);
      gemm_nt_ref(m, k, n, a, b, ref, beta);
      expect_bitwise_equal(c, ref, "gemm_nt", m, k, n, beta);
    }
    {
      std::vector<float> c = c_init, ref = c_init;
      gemm_tn(m, k, n, a, b, c, beta);
      gemm_tn_ref(m, k, n, a, b, ref, beta);
      expect_bitwise_equal(c, ref, "gemm_tn", m, k, n, beta);
      if (k > 0) {
        c = c_init;
        gemm_tn_blocked(m, k, n, a, b, c, beta);
        expect_bitwise_equal(c, ref, "gemm_tn_blocked", m, k, n, beta);
      }
    }
  }
}

TEST(GemmBlocked, DegenerateAndUnitDims) {
  for (const auto& [m, k, n] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{0, 0, 0},
        {0, 5, 7},
        {5, 0, 7},
        {5, 7, 0},
        {1, 1, 1},
        {1, 257, 1},
        {1, 64, 300},
        {300, 64, 1},
        {257, 1, 33}}) {
    check_shape(m, k, n, 1000 + m * 31 + k * 7 + n, false);
  }
}

TEST(GemmBlocked, NonSquarePanelsCrossBlockBoundaries) {
  // Shapes straddling the microkernel tile (4x8) and the cache blocks
  // (kc/mc/nc from gemm_tuning), including off-by-one edges.
  const GemmTuning& tun = gemm_tuning();
  check_shape(3, 5, 17, 1, false);
  check_shape(4, 16, 16, 2, false);
  check_shape(5, 33, 31, 3, false);
  check_shape(64, 100, 48, 4, false);
  check_shape(70, tun.kc + 1, 40, 5, false);
  check_shape(tun.mc + 3, 65, 19, 6, false);
  check_shape(40, 120, tun.nc + 9, 7, false);
  check_shape(129, 257, 65, 8, false);
}

TEST(GemmBlocked, ZeroHeavyAPreservesSkipBranch) {
  check_shape(48, 96, 40, 11, true);
  check_shape(33, tensor::gemm_tuning().kc + 5, 37, 12, true);
}

using Gemm = void (*)(std::size_t, std::size_t, std::size_t,
                      std::span<const float>, std::span<const float>,
                      std::span<float>, float);

std::uint64_t ref_calls() {
  return obs::snapshot().counter_value("gemm.ref_calls");
}

std::uint64_t rows_calls() {
  return obs::snapshot().counter_value("gemm.rows_calls");
}

TEST(GemmBlocked, ZeroShareDispatchStraddlesThreshold) {
  // Past the register-row kernels' reach (n > 64), gemm_nn / gemm_tn send
  // an A that is at least a quarter exact zeros to the reference loop. On
  // either side of that share, C must carry the reference's bits — with
  // NaN and +-Inf in B, where the skip decides whether 0 * NaN reaches C —
  // and gemm.ref_calls / gemm.rows_calls pin the path taken. n = 64 is the
  // compact CIFAR MLP's dW shape, which the row kernel serves at every
  // zero share; n = 128 is large enough for the blocked path.
  constexpr std::size_t m = 32, k = 16, count = m * k;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  struct Variant {
    const char* name;
    Gemm dispatched, ref, blocked;
  };
  const Variant variants[] = {
      {"gemm_nn", gemm_nn, gemm_nn_ref, gemm_nn_blocked},
      {"gemm_tn", gemm_tn, gemm_tn_ref, gemm_tn_blocked}};
  for (const std::size_t n : {std::size_t{64}, std::size_t{128}}) {
    for (const std::size_t zeros :
         {std::size_t{0}, count / 4 - 1, count / 4, count / 4 + 1, count}) {
      util::Rng rng(700 + zeros + n);
      std::vector<float> a(count), b(k * n), c_init(m * n);
      rng.fill_normal(a, 0.0f, 1.0f);
      rng.fill_normal(b, 0.0f, 1.0f);
      rng.fill_normal(c_init, 0.0f, 1.0f);
      const std::vector<std::size_t> at =
          rng.sample_without_replacement(count, zeros);
      for (std::size_t i = 0; i < zeros; ++i) {
        a[at[i]] = (i % 2 == 0) ? 0.0f : -0.0f;  // -0.0f is a zero too
      }
      // One non-finite B entry per column, so no C element sums two.
      b[3 * n + 5] = nan;
      b[7 * n + 20] = inf;
      b[11 * n + 41] = -inf;
      const bool want_rows = n <= 64;
      const bool want_ref = !want_rows && zeros * 4 >= count;

      for (const Variant& v : variants) {
        for (const float beta : {0.0f, 1.0f, 0.5f}) {
          std::vector<float> c = c_init, ref = c_init, blocked = c_init;
          const std::uint64_t ref_before = ref_calls();
          const std::uint64_t rows_before = rows_calls();
          v.dispatched(m, k, n, a, b, c, beta);
          EXPECT_EQ(ref_calls() - ref_before, want_ref ? 1u : 0u)
              << v.name << " n=" << n << " zeros=" << zeros;
          EXPECT_EQ(rows_calls() - rows_before, want_rows ? 1u : 0u)
              << v.name << " n=" << n << " zeros=" << zeros;
          v.ref(m, k, n, a, b, ref, beta);
          v.blocked(m, k, n, a, b, blocked, beta);
          expect_bitwise_equal(c, ref, v.name, m, k, n, beta);
          expect_bitwise_equal(blocked, ref, v.name, m, k, n, beta);
        }
        // beta == 0 never reads C, so NaN poison must not reach the result.
        std::vector<float> c(m * n, nan), blocked(m * n, nan), ref = c_init;
        v.dispatched(m, k, n, a, b, c, 0.0f);
        v.blocked(m, k, n, a, b, blocked, 0.0f);
        v.ref(m, k, n, a, b, ref, 0.0f);
        expect_bitwise_equal(c, ref, v.name, m, k, n, 0.0f);
        expect_bitwise_equal(blocked, ref, v.name, m, k, n, 0.0f);
      }
    }
  }
  obs::set_enabled(was_enabled);
}

TEST(GemmRows, BitwiseAgainstReferenceAcrossRoutingBoundaries) {
  // The register-row kernels against the seed loops on both sides of every
  // routing boundary: n around the 8-lane vectors and the 64-column reach,
  // k around the 256 depth and the 8192-float B panel, m around the nt
  // row-count rule. A is 0, 1/2 or all exact zeros (+0.0f and -0.0f
  // alternating) and B holds NaN and +-Inf, at most one per output
  // element's sum, so the zero skip decides whether 0 * NaN reaches C.
  // With beta == 0, C is NaN-poisoned: it must never be read. m == 200
  // runs one rotating (beta, share) case per shape to keep the suite quick
  // under sanitizers.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  struct Variant {
    const char* name;
    Gemm dispatched, ref, rows;
    bool b_transposed;  // B is [n, k] (nt) rather than [k, n]
  };
  const Variant variants[] = {
      {"gemm_nn", gemm_nn, gemm_nn_ref, gemm_nn_rows, false},
      {"gemm_nt", gemm_nt, gemm_nt_ref, gemm_nt_rows, true},
      {"gemm_tn", gemm_tn, gemm_tn_ref, gemm_tn_rows, false}};
  const float betas[] = {0.0f, 1.0f, 0.5f};
  std::size_t shape_index = 0;
  for (const std::size_t n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 62, 63,
                              64, 65, 72}) {
    for (const std::size_t k : {1, 4, 16, 62, 256, 257}) {
      for (const std::size_t m : {1, 4, 16, 200}) {
        util::Rng rng(31 * n + 7 * k + m);
        std::vector<float> a_dense(m * k), b(k * n), c_init(m * n);
        rng.fill_normal(a_dense, 0.0f, 1.0f);
        rng.fill_normal(b, 0.0f, 1.0f);
        rng.fill_normal(c_init, 0.0f, 1.0f);
        const std::size_t pick = shape_index++ % 9;
        for (std::size_t share = 0; share < 3; ++share) {  // in halves
          for (std::size_t bi = 0; bi < 3; ++bi) {
            if (m == 200 && share * 3 + bi != pick) continue;
            const float beta = betas[bi];
            std::vector<float> a = a_dense;
            for (std::size_t i = 0; i < a.size(); ++i) {
              if (share == 2 || (share == 1 && i % 2 == 0)) {
                a[i] = (i / 2) % 2 == 0 ? 0.0f : -0.0f;
              }
            }
            for (const Variant& v : variants) {
              // Column j's dot runs over B[p][j] (nn, tn) or B[j][p] (nt).
              std::vector<float> bv = b;
              for (std::size_t j = 1; j < n; j += 4) {
                const std::size_t p = (7 * j + 3) % k;
                const float bad = j % 3 == 0 ? nan : j % 3 == 1 ? inf : -inf;
                bv[v.b_transposed ? j * k + p : p * n + j] = bad;
              }
              const std::vector<float> c0 =
                  beta == 0.0f ? std::vector<float>(m * n, nan) : c_init;
              std::vector<float> want = c0, got = c0;
              v.ref(m, k, n, a, bv, want, beta);
              v.dispatched(m, k, n, a, bv, got, beta);
              expect_bitwise_equal(got, want, v.name, m, k, n, beta);
              if (gemm_rows_fit(k, n)) {
                got = c0;
                v.rows(m, k, n, a, bv, got, beta);
                expect_bitwise_equal(got, want, v.name, m, k, n, beta);
              }
            }
          }
        }
      }
    }
  }
}

/// The edge-tile contract: the slivers a shape leaves at its bottom rows
/// (m % 4) and right columns (n % 8) give the reference's bits like the
/// whole tiles, for every beta, over a C of -0.0 (a skipped zero
/// multiplier keeps it, an added one makes +0.0), with exact zeros only in
/// the live rows of the bottom sliver and k past a kc boundary. B also
/// reaches gemm_nn_indexed, materialised through identity tables (whole
/// slivers copied) and through strided ones (every lane gathered).
TEST(GemmBlocked, EdgeTilesMatchReferenceBitwise) {
  const std::size_t kc = gemm_tuning().kc;
  for (const std::size_t m : {1, 3, 5, 33}) {
    for (const std::size_t n : {3, 9, 75}) {
      for (const std::size_t k : {std::size_t{7}, kc + 3}) {
        util::Rng rng(m * 1000 + n * 10 + k);
        std::vector<float> a(m * k), b(k * n);
        rng.fill_normal(a, 0.0f, 1.0f);
        rng.fill_normal(b, 0.0f, 1.0f);
        // Zeros in the bottom sliver's live rows only: rows [m0, m) of the
        // nn layout, columns [m0, m) of the tn layout (both read as A).
        const std::size_t m0 = (m - 1) / 4 * 4;
        std::vector<float> a_tn = a;
        for (std::size_t i = m0; i < m; ++i) {
          for (std::size_t p = i % 3; p < k; p += 3) {
            a[i * k + p] = 0.0f;
            a_tn[p * m + i] = 0.0f;
          }
        }
        std::vector<std::size_t> rows(k), cols(n), cols_strided(n);
        for (std::size_t p = 0; p < k; ++p) rows[p] = p * n;
        for (std::size_t j = 0; j < n; ++j) cols[j] = j;
        // B again at twice the column stride, -1 between the live values.
        std::vector<float> b_wide(k * 2 * n, -1.0f);
        std::vector<std::size_t> rows_wide(k);
        for (std::size_t p = 0; p < k; ++p) {
          rows_wide[p] = p * 2 * n;
          for (std::size_t j = 0; j < n; ++j) b_wide[p * 2 * n + 2 * j] = b[p * n + j];
        }
        for (std::size_t j = 0; j < n; ++j) cols_strided[j] = 2 * j;
        const IndexedB indexed{b.data(), rows.data(), cols.data()};
        const IndexedB strided{b_wide.data(), rows_wide.data(),
                               cols_strided.data()};

        for (const float beta : {0.0f, 1.0f, 0.5f}) {
          const std::vector<float> c_init(m * n, -0.0f);
          std::vector<float> ref = c_init, c = c_init;
          gemm_nn_ref(m, k, n, a, b, ref, beta);
          gemm_nn_blocked(m, k, n, a, b, c, beta);
          expect_bitwise_equal(c, ref, "gemm_nn_blocked", m, k, n, beta);
          c = c_init;
          gemm_nn_indexed(m, k, n, a, indexed, c, beta);
          expect_bitwise_equal(c, ref, "gemm_nn_indexed", m, k, n, beta);
          c = c_init;
          gemm_nn_indexed(m, k, n, a, strided, c, beta);
          expect_bitwise_equal(c, ref, "gemm_nn_indexed strided", m, k, n,
                               beta);

          ref = c_init;
          c = c_init;
          gemm_tn_ref(m, k, n, a_tn, b, ref, beta);
          gemm_tn_blocked(m, k, n, a_tn, b, c, beta);
          expect_bitwise_equal(c, ref, "gemm_tn_blocked", m, k, n, beta);

          // nt reads B as [n, k]: the same k * n floats.
          ref = c_init;
          c = c_init;
          gemm_nt_ref(m, k, n, a, b, ref, beta);
          gemm_nt_blocked(m, k, n, a, b, c, beta);
          expect_bitwise_equal(c, ref, "gemm_nt_blocked", m, k, n, beta);
        }
      }
    }
  }
}

TEST(GemmBlocked, LongAccumulationFuzz) {
  // Many k steps stress the cross-block accumulator carry: any deviation
  // from the seed's per-element op order shows up as a bit flip here.
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    util::Rng shape_rng(500 + trial);
    const auto m = static_cast<std::size_t>(1 + shape_rng.uniform_int(90));
    const auto k = static_cast<std::size_t>(1 + shape_rng.uniform_int(700));
    const auto n = static_cast<std::size_t>(1 + shape_rng.uniform_int(90));
    check_shape(m, k, n, 9000 + trial, trial % 2 == 1);
  }
}

TEST(GemmBlocked, BetaZeroNeverReadsCAnyVariantAnyPath) {
  // NaN-C regression for all three variants, on shapes that take the
  // blocked path AND shapes that take the reference fallback.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const auto& [m, k, n] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{3, 4, 2},
        {48, 128, 40}}) {
    util::Rng rng(m + k + n);
    std::vector<float> a(m * k), b(k * n);
    rng.fill_normal(a, 0.0f, 1.0f);
    rng.fill_normal(b, 0.0f, 1.0f);
    std::vector<float> c(m * n, nan);
    gemm_nn(m, k, n, a, b, c, 0.0f);
    for (const float v : c) ASSERT_FALSE(std::isnan(v)) << "gemm_nn";
    std::fill(c.begin(), c.end(), nan);
    gemm_nt(m, k, n, a, b, c, 0.0f);
    for (const float v : c) ASSERT_FALSE(std::isnan(v)) << "gemm_nt";
    std::fill(c.begin(), c.end(), nan);
    gemm_tn(m, k, n, a, b, c, 0.0f);
    for (const float v : c) ASSERT_FALSE(std::isnan(v)) << "gemm_tn";
    // The retained references share the write-only-C contract.
    std::fill(c.begin(), c.end(), nan);
    gemm_nn_ref(m, k, n, a, b, c, 0.0f);
    for (const float v : c) ASSERT_FALSE(std::isnan(v)) << "gemm_nn_ref";
    std::fill(c.begin(), c.end(), nan);
    gemm_nt_ref(m, k, n, a, b, c, 0.0f);
    for (const float v : c) ASSERT_FALSE(std::isnan(v)) << "gemm_nt_ref";
    std::fill(c.begin(), c.end(), nan);
    gemm_tn_ref(m, k, n, a, b, c, 0.0f);
    for (const float v : c) ASSERT_FALSE(std::isnan(v)) << "gemm_tn_ref";
  }
}

// ---------------------------------------------------------------------------
// Cross-ISA oracle. The seed loops once more, compiled in this test TU,
// which has no ISA clones and so runs at the baseline target. The public
// kernels run the library's avx2 clone on an AVX2 host (gemm_isa() says
// which), so equal bits here mean every clone computes what the baseline
// loops compute, at the shapes the benchmark workloads run.
// ---------------------------------------------------------------------------

void seed_nn(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const float* b, float* c, float beta) {
  for (std::size_t i = 0; i < m; ++i) {
    float* ci = c + i * n;
    if (beta == 0.0f) {
      std::fill(ci, ci + n, 0.0f);
    } else if (beta != 1.0f) {
      for (std::size_t j = 0; j < n; ++j) ci[j] *= beta;
    }
    for (std::size_t p = 0; p < k; ++p) {
      const float aip = a[i * k + p];
      if (aip == 0.0f) continue;
      for (std::size_t j = 0; j < n; ++j) ci[j] += aip * b[p * n + j];
    }
  }
}

void seed_nt(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const float* b, float* c, float beta) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += a[i * k + p] * b[j * k + p];
      c[i * n + j] = beta == 0.0f ? acc : beta * c[i * n + j] + acc;
    }
  }
}

void seed_tn(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const float* b, float* c, float beta) {
  if (beta == 0.0f) {
    std::fill(c, c + m * n, 0.0f);
  } else if (beta != 1.0f) {
    for (std::size_t i = 0; i < m * n; ++i) c[i] *= beta;
  }
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t i = 0; i < m; ++i) {
      const float api = a[p * m + i];
      if (api == 0.0f) continue;
      for (std::size_t j = 0; j < n; ++j) c[i * n + j] += api * b[p * n + j];
    }
  }
}

using SeedGemm = void (*)(std::size_t, std::size_t, std::size_t, const float*,
                         const float*, float*, float);

struct CrossIsaVariant {
  const char* name;
  SeedGemm seed;
  Gemm dispatched;
  Gemm blocked;  // nullptr for nt, whose blocked kernel is internal
  Gemm rows;
};

const CrossIsaVariant kNN{"gemm_nn", seed_nn, gemm_nn, gemm_nn_blocked,
                          gemm_nn_rows};
const CrossIsaVariant kNT{"gemm_nt", seed_nt, gemm_nt, nullptr, gemm_nt_rows};
const CrossIsaVariant kTN{"gemm_tn", seed_tn, gemm_tn, gemm_tn_blocked,
                          gemm_tn_rows};

struct OracleShape {
  const CrossIsaVariant* variant;
  std::size_t m, k, n;
};

/// The GEMMs the four benchmark workloads run: both compact MLPs' forward
/// (nt), weight gradients (tn) and input gradient (nn) at batch 16 and 4,
/// the evaluation batches, and for each GN-LeNet convolution its forward
/// (nn), weight gradient (tn) and input gradient (nn), with the shapes
/// Conv2d::backward_im2col derives from the layer's geometry.
std::vector<OracleShape> workload_shapes() {
  std::vector<OracleShape> shapes = {
      {&kNT, 16, 64, 32},  {&kNT, 16, 32, 10},  {&kNT, 16, 64, 48},
      {&kNT, 16, 48, 62},  {&kNT, 4, 64, 32},   {&kNT, 600, 64, 32},
      {&kNT, 200, 32, 10}, {&kNT, 200, 64, 48}, {&kNT, 200, 48, 62},
      {&kTN, 32, 16, 64},  {&kTN, 10, 16, 32},  {&kTN, 48, 16, 64},
      {&kTN, 62, 16, 48},  {&kTN, 32, 4, 64},   {&kNN, 16, 10, 32},
      {&kNN, 16, 62, 48},  {&kNN, 4, 10, 32}};
  nn::Sequential lenet = nn::make_cifar_cnn();
  tensor::Shape shape = {1, 3, 32, 32};
  for (std::size_t i = 0; i < lenet.num_layers(); ++i) {
    const nn::Layer& layer = lenet.layer(i);
    const tensor::Shape out = layer.output_shape(shape);
    if (const auto* conv = dynamic_cast<const nn::Conv2d*>(&layer)) {
      const std::size_t kk = conv->kernel_size() * conv->kernel_size();
      const std::size_t patch = conv->in_channels() * kk;
      const std::size_t ohw = out[2] * out[3];
      shapes.push_back({&kNN, conv->out_channels(), patch, ohw});
      shapes.push_back({&kTN, conv->out_channels(), ohw, patch});
      shapes.push_back({&kNN, conv->in_channels(), conv->out_channels() * kk,
                        shape[2] * shape[3]});
    }
    shape = out;
  }
  return shapes;
}

TEST(GemmCrossIsa, PublicKernelsMatchBaselineSeedLoopsAtWorkloadShapes) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<OracleShape> shapes = workload_shapes();
  ASSERT_EQ(shapes.size(), 17u + 3u * 3u);  // three GN-LeNet convolutions
  std::uint64_t seed = 0;
  for (const auto& [v, m, k, n] : shapes) {
    // Dense and half zero A: past the row kernels' reach nn / tn then
    // take the blocked kernel and the zero-skipping reference loop
    // respectively, and the direct blocked call covers the blend
    // microkernel; where the row kernels reach, the direct call pins them
    // whatever the dispatch picks.
    for (const bool half_zero : {false, true}) {
      util::Rng rng(8800 + ++seed);
      std::vector<float> a(m * k), b(k * n), c_init(m * n);
      rng.fill_normal(a, 0.0f, 1.0f);
      rng.fill_normal(b, 0.0f, 1.0f);
      rng.fill_normal(c_init, 0.0f, 1.0f);
      if (half_zero) {
        for (std::size_t i = 0; i < a.size(); i += 2) a[i] = 0.0f;
      }
      for (const float beta : {0.0f, 1.0f}) {
        // beta == 0 must never read C: poison it.
        const std::vector<float> c0 =
            beta == 0.0f ? std::vector<float>(m * n, nan) : c_init;
        std::vector<float> want = c0, got = c0;
        v->seed(m, k, n, a.data(), b.data(), want.data(), beta);
        v->dispatched(m, k, n, a, b, got, beta);
        expect_bitwise_equal(got, want, v->name, m, k, n, beta);
        if (v->blocked != nullptr) {
          got = c0;
          v->blocked(m, k, n, a, b, got, beta);
          expect_bitwise_equal(got, want, v->name, m, k, n, beta);
        }
        if (gemm_rows_fit(k, n)) {
          got = c0;
          v->rows(m, k, n, a, b, got, beta);
          expect_bitwise_equal(got, want, v->name, m, k, n, beta);
        }
      }
    }
  }
}

TEST(GemmCrossIsa, GemmIsaNamesTheCloneTheCpuSelects) {
  const std::string isa = gemm_isa();
#if SKIPTRAIN_ISA_CLONES
  EXPECT_EQ(isa, __builtin_cpu_supports("avx2") ? "avx2" : "default");
#else
  EXPECT_EQ(isa, "default");
#endif
}

TEST(GemmTuning, DerivedBlocksAreSane) {
  const GemmTuning& tun = gemm_tuning();
  EXPECT_GE(tun.kc, 64u);
  EXPECT_LE(tun.kc, 512u);
  EXPECT_GE(tun.mc, 4u);
  EXPECT_LE(tun.mc, 1024u);
  EXPECT_EQ(tun.nc % 16, 0u);
  EXPECT_GT(tun.l1d_bytes, 0u);
  EXPECT_GT(tun.l2_bytes, tun.l1d_bytes);
}

}  // namespace
}  // namespace skiptrain::tensor
