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
#include "tensor/gemm.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

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

/// GN-LeNet conv1..3 at batch `batch` (make_cifar_cnn).
std::vector<ConvCase> gn_lenet_convs(std::size_t batch) {
  return {{batch, 3, 32, 5, 1, 2, 32, 32},
          {batch, 32, 32, 5, 1, 2, 16, 16},
          {batch, 32, 64, 5, 1, 2, 8, 8}};
}

TEST(ConvIm2col, ModelZooShapes) {
  // GN-LeNet conv1..3 and the FEMNIST CNN convs (batch kept small).
  check_case({2, 3, 32, 5, 1, 2, 32, 32}, 11, 0.0);
  check_case({2, 32, 32, 5, 1, 2, 16, 16}, 12, 0.3);
  check_case({2, 32, 64, 5, 1, 2, 8, 8}, 13, 0.5);
  check_case({2, 1, 32, 5, 1, 2, 28, 28}, 14, 0.0);
  check_case({2, 32, 64, 5, 1, 2, 14, 14}, 15, 0.5);
}

TEST(ConvIm2col, GnLenetAtEvalBatch) {
  // The evaluator's batch of 32: 32 per-image GEMMs per call, each
  // reusing the per-thread staging the previous image left behind.
  std::uint64_t seed = 16;
  for (const ConvCase& cc : gn_lenet_convs(32)) check_case(cc, seed++, 0.2);
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

/// Straight-loop patch matrix col[κ][pos], κ = (ic, ky, kx) and
/// pos = (oy, ox), with padding slots 0.0f: the operand every lowered
/// conv GEMM multiplies by, written as plainly as possible.
std::vector<float> straight_loop_patches(const ConvGeometry& g,
                                         const std::vector<float>& image) {
  std::vector<float> col(g.patch() * g.out_hw());
  std::size_t kappa = 0;
  for (std::size_t ic = 0; ic < g.in_c; ++ic) {
    for (std::size_t ky = 0; ky < g.k; ++ky) {
      for (std::size_t kx = 0; kx < g.k; ++kx, ++kappa) {
        for (std::size_t oy = 0; oy < g.oh; ++oy) {
          for (std::size_t ox = 0; ox < g.ow; ++ox) {
            const auto iy = static_cast<std::ptrdiff_t>(oy * g.stride + ky) -
                            static_cast<std::ptrdiff_t>(g.pad);
            const auto ix = static_cast<std::ptrdiff_t>(ox * g.stride + kx) -
                            static_cast<std::ptrdiff_t>(g.pad);
            const bool inside =
                iy >= 0 && ix >= 0 && iy < static_cast<std::ptrdiff_t>(g.h) &&
                ix < static_cast<std::ptrdiff_t>(g.w);
            col[kappa * g.out_hw() + oy * g.ow + ox] =
                inside ? image[(ic * g.h + static_cast<std::size_t>(iy)) * g.w +
                               static_cast<std::size_t>(ix)]
                       : 0.0f;
          }
        }
      }
    }
  }
  return col;
}

ConvGeometry make_geometry(std::size_t in_c, std::size_t h, std::size_t w,
                           std::size_t k, std::size_t stride,
                           std::size_t pad) {
  ConvGeometry g;
  g.in_c = in_c;
  g.h = h;
  g.w = w;
  g.k = k;
  g.stride = stride;
  g.pad = pad;
  g.oh = (h + 2 * pad - k) / stride + 1;
  g.ow = (w + 2 * pad - k) / stride + 1;
  return g;
}

/// Geometries for the patch-operand tests: padding zeros, stride 2,
/// pad >= k, out_hw % 8 != 0, and GN-LeNet conv2, whose 800-row patch
/// dimension spans several channels per kc block.
std::vector<ConvGeometry> patch_geometries() {
  return {make_geometry(2, 2, 3, 2, 1, 1),     // the tiny asymmetric case
          make_geometry(3, 9, 7, 3, 2, 1),     // stride 2, out 5 x 4
          make_geometry(2, 4, 5, 1, 1, 1),     // pad >= k
          make_geometry(2, 5, 6, 3, 2, 3),     // stride 2, pad >= k
          make_geometry(3, 11, 13, 4, 3, 2),   // out 4 x 5
          make_geometry(32, 16, 16, 5, 1, 2),  // GN-LeNet conv2
          make_geometry(1, 28, 28, 5, 1, 2)};  // FEMNIST conv1, out 784
}

std::vector<float> numbered_image(const ConvGeometry& g) {
  // Distinct nonzero values, so a misplaced or missing read shows.
  std::vector<float> image(g.in_c * g.h * g.w);
  for (std::size_t i = 0; i < image.size(); ++i) {
    image[i] = static_cast<float>(i + 1);
  }
  return image;
}

/// Packs every (kc, nc) panel of `b`, a [k, n] operand, and checks each
/// live sliver lane against want(p, j).
template <typename Want>
void expect_panels(const tensor::IndexedB& b, std::size_t k, std::size_t n,
                   std::size_t kc, std::size_t nc, Want&& want) {
  constexpr std::size_t w = tensor::kGemmSliverCols;
  std::vector<float> panel(kc * (nc + w));
  for (std::size_t pc = 0; pc < k; pc += kc) {
    const std::size_t depth = std::min(kc, k - pc);
    for (std::size_t jc = 0; jc < n; jc += nc) {
      const std::size_t cols = std::min(nc, n - jc);
      tensor::pack_indexed_b(b, pc, jc, depth, cols, panel.data());
      for (std::size_t j = 0; j < cols; ++j) {
        for (std::size_t p = 0; p < depth; ++p) {
          const float got = panel[((j / w) * depth + p) * w + j % w];
          ASSERT_EQ(std::bit_cast<std::uint32_t>(got),
                    std::bit_cast<std::uint32_t>(want(pc + p, jc + j)))
              << "kc=" << kc << " nc=" << nc << " row " << pc + p
              << " col " << jc + j;
        }
      }
    }
  }
}

TEST(ConvIm2col, PatchOperandMatchesStraightLoops) {
  // The GEMM packs its B panels straight from the zero-padded image; the
  // panels must hold the straight-loop patch matrix, read κ-major (the
  // forward and dX GEMMs) and position-major (dW). kc = 13 and 37 start
  // blocks mid-channel; nc = 20 leaves 4-lane edge slivers.
  for (const ConvGeometry& g : patch_geometries()) {
    SCOPED_TRACE(::testing::Message()
                 << "in_c=" << g.in_c << " h=" << g.h << " w=" << g.w
                 << " k=" << g.k << " s=" << g.stride << " p=" << g.pad);
    const std::vector<float> image = numbered_image(g);
    const std::vector<float> col = straight_loop_patches(g, image);
    std::vector<float> padded(g.in_c * g.padded_h() * g.padded_w(), -1.0f);
    stage_planes(g.in_c, g.h, g.w, image.data(),
                 static_cast<std::ptrdiff_t>(g.pad), 1, g.padded_h(),
                 g.padded_w(), padded.data());
    std::vector<std::size_t> kappa_off(g.patch()), pos_off(g.out_hw());
    patch_offsets(g, kappa_off.data(), pos_off.data());
    const std::size_t patch = g.patch();
    const std::size_t ohw = g.out_hw();
    const auto kappa_major = [&](std::size_t kp, std::size_t pos) {
      return col[kp * ohw + pos];
    };
    const auto pos_major = [&](std::size_t pos, std::size_t kp) {
      return col[kp * ohw + pos];
    };
    for (const std::size_t kc : {std::size_t{13}, std::size_t{37},
                                 tensor::gemm_tuning().kc}) {
      for (const std::size_t nc : {std::size_t{20}, tensor::gemm_tuning().nc}) {
        expect_panels({padded.data(), kappa_off.data(), pos_off.data()}, patch,
                      ohw, kc, nc, kappa_major);
        expect_panels({padded.data(), pos_off.data(), kappa_off.data()}, ohw,
                      patch, kc, nc, pos_major);
      }
    }
  }
}

/// One conv's forward output, parameter gradients and input gradient.
struct ConvRun {
  std::vector<float> out, grads, gin;
};

ConvRun run_lowered(const ConvCase& cc, std::uint64_t seed) {
  Conv2d conv(cc.in_c, cc.out_c, cc.k, cc.stride, cc.pad);
  conv.set_algorithm(Conv2dAlgo::kIm2col);
  util::Rng rng(seed);
  rng.fill_normal(conv.parameters(), 0.0f, 0.5f);
  Tensor input({cc.batch, cc.in_c, cc.h, cc.w});
  rng.fill_normal(input.data(), 0.0f, 1.0f);
  const auto out_shape = conv.output_shape(input.shape());
  Tensor out(out_shape);
  conv.forward(input, out);
  Tensor gout(out_shape);
  rng.fill_normal(gout.data(), 0.0f, 1.0f);
  Tensor gin(input.shape());
  conv.zero_grad();
  conv.backward(input, gout, gin);
  ConvRun run;
  run.out.assign(out.data().begin(), out.data().end());
  run.grads.assign(conv.gradients().begin(), conv.gradients().end());
  run.gin.assign(gin.data().begin(), gin.data().end());
  return run;
}

TEST(ConvIm2col, ConcurrentWorkersMatchSerial) {
  // Pool workers run forward and backward of all three GN-LeNet convs at
  // once, as node-parallel training does; each worker's per-thread
  // scratch must leave every result bitwise equal to a serial run.
  const std::vector<ConvCase> convs = gn_lenet_convs(2);
  constexpr std::size_t kJobs = 12;
  std::vector<ConvRun> serial(kJobs);
  for (std::size_t j = 0; j < kJobs; ++j) {
    serial[j] = run_lowered(convs[j % convs.size()], 500 + j);
  }
  util::ThreadPool pool(4);
  std::vector<ConvRun> parallel(kJobs);
  pool.parallel_for(0, kJobs, [&](std::size_t j) {
    parallel[j] = run_lowered(convs[j % convs.size()], 500 + j);
  });
  for (std::size_t j = 0; j < kJobs; ++j) {
    SCOPED_TRACE(::testing::Message() << "job " << j);
    expect_bits_equal(parallel[j].out, serial[j].out, "forward");
    expect_bits_equal(parallel[j].grads, serial[j].grads, "grad_params");
    expect_bits_equal(parallel[j].gin, serial[j].gin, "grad_input");
  }
}

}  // namespace
}  // namespace skiptrain::nn
