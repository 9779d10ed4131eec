// Bit-identity of the im2col + GEMM Conv2d path against the retained
// direct loop nest, across fuzzed shapes including odd kernel/stride/
// padding combos, unit dims, and zero-heavy gradients (the direct loop's
// g == 0 skip). Forward outputs, weight/bias gradients, and input
// gradients must all match bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "nn/conv2d.hpp"
#include "nn/im2col.hpp"
#include "util/rng.hpp"

namespace skiptrain::nn {
namespace {

using tensor::Tensor;

void expect_bits_equal(std::span<const float> got, std::span<const float> want,
                       const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << what << " diverges at " << i << ": " << got[i] << " vs " << want[i];
  }
}

struct ConvCase {
  std::size_t batch, in_c, out_c, k, stride, pad, h, w;
};

/// Builds two identically-initialized layers (one per algorithm), runs
/// forward + backward on the same data, and compares everything bitwise.
/// `grad_zero_fraction` zeroes part of grad_output to exercise the skip.
void check_case(const ConvCase& cc, std::uint64_t seed,
                double grad_zero_fraction) {
  SCOPED_TRACE(::testing::Message()
               << "b=" << cc.batch << " in_c=" << cc.in_c
               << " out_c=" << cc.out_c << " k=" << cc.k << " s=" << cc.stride
               << " p=" << cc.pad << " h=" << cc.h << " w=" << cc.w
               << " seed=" << seed);
  Conv2d direct(cc.in_c, cc.out_c, cc.k, cc.stride, cc.pad);
  Conv2d lowered(cc.in_c, cc.out_c, cc.k, cc.stride, cc.pad);
  direct.set_algorithm(Conv2dAlgo::kDirect);
  lowered.set_algorithm(Conv2dAlgo::kIm2col);

  util::Rng rng(seed);
  std::vector<float> params(direct.parameter_count());
  rng.fill_normal(params, 0.0f, 0.5f);
  std::copy(params.begin(), params.end(), direct.parameters().begin());
  std::copy(params.begin(), params.end(), lowered.parameters().begin());

  Tensor input({cc.batch, cc.in_c, cc.h, cc.w});
  rng.fill_normal(input.data(), 0.0f, 1.0f);
  // Post-ReLU-like inputs: exact zeros in the data (not the parameters)
  // are included by both paths identically.
  for (std::size_t i = 0; i < input.numel(); i += 5) input.data()[i] = 0.0f;

  const auto out_shape = direct.output_shape(input.shape());
  Tensor out_a(out_shape), out_b(out_shape);
  direct.forward(input, out_a);
  lowered.forward(input, out_b);
  expect_bits_equal(out_b.data(), out_a.data(), "forward");

  Tensor gout(out_shape);
  rng.fill_normal(gout.data(), 0.0f, 1.0f);
  if (grad_zero_fraction > 0.0) {
    for (auto& v : gout.data()) {
      if (rng.uniform() < grad_zero_fraction) v = 0.0f;
    }
  }
  Tensor gin_a(input.shape()), gin_b(input.shape());
  direct.zero_grad();
  lowered.zero_grad();
  direct.backward(input, gout, gin_a);
  lowered.backward(input, gout, gin_b);
  expect_bits_equal(gin_b.data(), gin_a.data(), "grad_input");
  expect_bits_equal(lowered.gradients(), direct.gradients(), "grad_params");

  // Second backward without zero_grad: gradient accumulation (beta == 1
  // into existing grads) must stay bit-identical too. A forward in between
  // leaves the shared patch scratch holding forward data, and grad_input
  // is NaN-poisoned, so every element must be rewritten from this call.
  lowered.forward(input, out_b);
  std::fill(gin_b.data().begin(), gin_b.data().end(),
            std::numeric_limits<float>::quiet_NaN());
  direct.backward(input, gout, gin_a);
  lowered.backward(input, gout, gin_b);
  expect_bits_equal(gin_b.data(), gin_a.data(), "grad_input accumulated");
  expect_bits_equal(lowered.gradients(), direct.gradients(),
                    "grad_params accumulated");
}

TEST(ConvIm2col, ModelZooShapes) {
  // GN-LeNet conv1..3 and the FEMNIST CNN convs (batch kept small).
  check_case({2, 3, 32, 5, 1, 2, 32, 32}, 11, 0.0);
  check_case({2, 32, 32, 5, 1, 2, 16, 16}, 12, 0.3);
  check_case({2, 32, 64, 5, 1, 2, 8, 8}, 13, 0.5);
  check_case({2, 1, 32, 5, 1, 2, 28, 28}, 14, 0.0);
}

TEST(ConvIm2col, OddKernelStridePaddingCombos) {
  check_case({1, 2, 3, 3, 2, 1, 9, 7}, 21, 0.0);
  check_case({2, 3, 4, 4, 3, 2, 11, 13}, 22, 0.4);
  check_case({1, 1, 1, 7, 1, 3, 7, 7}, 23, 0.0);
  check_case({2, 2, 2, 5, 4, 0, 17, 9}, 24, 0.2);
  check_case({1, 3, 2, 2, 1, 0, 6, 6}, 25, 0.0);
  check_case({1, 2, 5, 3, 1, 2, 4, 5}, 26, 0.6);
}

TEST(ConvIm2col, UnitAndDegenerateDims) {
  check_case({1, 1, 1, 1, 1, 0, 1, 1}, 31, 0.0);
  check_case({1, 1, 1, 1, 1, 0, 5, 5}, 32, 0.0);  // pointwise fast path
  check_case({3, 4, 6, 1, 1, 0, 8, 8}, 33, 0.3);  // pointwise, batch > 1
  check_case({1, 1, 2, 3, 1, 1, 1, 1}, 34, 0.0);  // input smaller than kernel
  check_case({1, 2, 1, 3, 2, 2, 2, 3}, 35, 0.5);
}

TEST(ConvIm2col, PaddingAtLeastKernel) {
  // pad >= k: the input gradient's transposed conv crops the gradient
  // plane instead of padding it negatively.
  check_case({2, 2, 3, 1, 1, 1, 4, 5}, 41, 0.0);
  check_case({1, 3, 2, 1, 1, 1, 1, 1}, 42, 0.5);
  check_case({2, 2, 3, 3, 2, 3, 5, 6}, 43, 0.3);
  check_case({1, 1, 2, 2, 3, 3, 4, 2}, 44, 0.0);
  check_case({1, 2, 2, 1, 2, 2, 3, 3}, 45, 0.5);
}

TEST(ConvIm2col, FuzzedShapes) {
  util::Rng rng(777);
  for (int trial = 0; trial < 12; ++trial) {
    ConvCase cc;
    cc.batch = 1 + rng.uniform_int(3);
    cc.in_c = 1 + rng.uniform_int(5);
    cc.out_c = 1 + rng.uniform_int(7);
    cc.k = 1 + rng.uniform_int(5);
    cc.stride = 1 + rng.uniform_int(3);
    cc.pad = rng.uniform_int(cc.k);
    cc.h = cc.k + rng.uniform_int(12);
    cc.w = cc.k + rng.uniform_int(12);
    // Keep geometry valid: padded extent must cover the kernel.
    if (cc.h + 2 * cc.pad < cc.k || cc.w + 2 * cc.pad < cc.k) continue;
    check_case(cc, 4000 + static_cast<std::uint64_t>(trial),
               trial % 3 == 0 ? 0.5 : 0.0);
  }
}

TEST(ConvIm2col, Im2colOrdersPatchDimAsDirectLoop) {
  // Spot-check the (ic, ky, kx) row order and padding zeros of the patch
  // matrix on a tiny asymmetric case.
  ConvGeometry g;
  g.in_c = 2;
  g.h = 2;
  g.w = 3;
  g.k = 2;
  g.stride = 1;
  g.pad = 1;
  g.oh = 3;
  g.ow = 4;
  std::vector<float> image(g.in_c * g.h * g.w);
  for (std::size_t i = 0; i < image.size(); ++i) {
    image[i] = static_cast<float>(i + 1);
  }
  std::vector<float> col(g.patch() * g.out_hw(), -1.0f);
  im2col_kmajor(g, image.data(), col.data());
  // Row κ=0 is (ic=0, ky=0, kx=0): input (oy-1, ox-1) with zero padding.
  const float* row0 = col.data();
  EXPECT_EQ(row0[0], 0.0f);                   // oy=0, ox=0 -> (-1,-1) pad
  EXPECT_EQ(row0[1 * g.ow + 1], image[0]);    // oy=1, ox=1 -> (0,0)
  EXPECT_EQ(row0[2 * g.ow + 2], image[4]);    // oy=2, ox=2 -> (1,1)
  // Row κ for (ic=1, ky=1, kx=1): input (oy, ox) of plane 1.
  const std::size_t kappa = (1 * g.k + 1) * g.k + 1;
  const float* row = col.data() + kappa * g.out_hw();
  EXPECT_EQ(row[0], image[6]);                // oy=0, ox=0 -> plane1 (0,0)
  EXPECT_EQ(row[3], 0.0f);                    // ox=3 -> ix=3 out of bounds

  // im2row is the transpose of im2col.
  std::vector<float> colr(g.out_hw() * g.patch(), -1.0f);
  im2row_posmajor(g, image.data(), colr.data());
  for (std::size_t kp = 0; kp < g.patch(); ++kp) {
    for (std::size_t pos = 0; pos < g.out_hw(); ++pos) {
      ASSERT_EQ(colr[pos * g.patch() + kp], col[kp * g.out_hw() + pos])
          << "kappa=" << kp << " pos=" << pos;
    }
  }
}

}  // namespace
}  // namespace skiptrain::nn
