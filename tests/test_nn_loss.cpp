// Softmax cross-entropy against a copy of the double-exp reference: the
// gradient and accuracy bits of nn::softmax_cross_entropy are pinned at the
// shapes the sweeps train, and a randomized differential of a million rows
// holds them to the reference bit for bit. The certified kernel's parts are
// checked on their own: util::exp4d against expl over its domain, and the
// fallback of rows whose probabilities sit on a float rounding midpoint.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <vector>

#include "nn/loss.hpp"
#include "obs/registry.hpp"
#include "tensor/tensor.hpp"
#include "util/isa.hpp"
#include "util/rng.hpp"

namespace skiptrain::nn {
namespace {

using tensor::Tensor;

/// The training loss as computed with two double std::exp per logit: one
/// in the log-sum-exp, one for each probability. The oracle of every test
/// in this file.
double reference_log_sum_exp(const float* row, std::size_t n) {
  float max_val = row[0];
  for (std::size_t i = 1; i < n; ++i) max_val = std::max(max_val, row[i]);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += std::exp(static_cast<double>(row[i]) - max_val);
  }
  return static_cast<double>(max_val) + std::log(sum);
}

LossResult reference_loss(const Tensor& logits,
                          std::span<const std::int32_t> labels,
                          Tensor& grad_logits) {
  const std::size_t batch = logits.dim(0);
  const std::size_t classes = logits.numel() / batch;
  double total_loss = 0.0;
  std::size_t correct = 0;
  const float inv_batch = 1.0f / static_cast<float>(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    const float* row = logits.raw() + b * classes;
    float* grad = grad_logits.raw() + b * classes;
    const auto label = static_cast<std::size_t>(labels[b]);
    const double lse = reference_log_sum_exp(row, classes);
    total_loss += lse - static_cast<double>(row[label]);
    for (std::size_t c = 0; c < classes; ++c) {
      const float p =
          static_cast<float>(std::exp(static_cast<double>(row[c]) - lse));
      grad[c] = p * inv_batch;
    }
    grad[label] -= inv_batch;
    if (argmax({row, classes}) == label) ++correct;
  }
  return LossResult{total_loss / static_cast<double>(batch),
                    static_cast<double>(correct) / static_cast<double>(batch)};
}

std::uint64_t fnv1a64(std::uint64_t hash, const void* data,
                      std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// Row kinds of the pinned batches. A row of kind k fills every class
/// from N(0, 1) and then:
enum RowKind : std::size_t {
  kPlain = 0,     // nothing more
  kWide,          // scaled by 8
  kTies,          // values drawn from three levels, so the maximum ties
  kSignedZeros,   // +0.0 and -0.0 only, with one 1e-3-scale class
  kDominating,    // one class raised by 1000: a span past 700
  kPlusInf,       // one class +inf
  kMinusInf,      // one class -inf
  kNaN,           // one class NaN (class 0 on even rows)
  kNumKinds,
};

void fill_row(util::Rng& rng, RowKind kind, std::size_t b, float* row,
              std::size_t n) {
  for (std::size_t c = 0; c < n; ++c) {
    row[c] = static_cast<float>(rng.normal());
  }
  const auto pick = static_cast<std::size_t>(rng.uniform_int(n));
  switch (kind) {
    case kPlain:
    case kNumKinds:
      break;
    case kWide:
      for (std::size_t c = 0; c < n; ++c) row[c] *= 8.0f;
      break;
    case kTies:
      for (std::size_t c = 0; c < n; ++c) {
        constexpr float kLevels[3] = {-1.25f, 0.5f, 2.0f};
        row[c] = kLevels[rng.uniform_int(3)];
      }
      break;
    case kSignedZeros:
      for (std::size_t c = 0; c < n; ++c) {
        row[c] = rng.bernoulli(0.5) ? 0.0f : -0.0f;
      }
      row[pick] = 1e-3f * static_cast<float>(rng.normal());
      break;
    case kDominating:
      row[pick] += 1000.0f;
      break;
    case kPlusInf:
      row[pick] = std::numeric_limits<float>::infinity();
      break;
    case kMinusInf:
      row[pick] = -std::numeric_limits<float>::infinity();
      break;
    case kNaN:
      row[b % 2 == 0 ? 0 : pick] = std::numeric_limits<float>::quiet_NaN();
      break;
  }
}

struct PinCase {
  std::size_t batch;
  std::size_t classes;
  std::size_t first_kind;  // row b has kind (first_kind + b) % kNumKinds
  std::uint64_t grad_and_accuracy_fnv;
};

/// One batch of a pinned case: logits, labels and the loss's outputs.
struct PinBatch {
  Tensor logits;
  std::vector<std::int32_t> labels;
  Tensor grad;
  LossResult result;
};

/// Row b takes kind (pin.first_kind + b) % kinds: the first `kinds` kinds.
PinBatch run_pin_case(const PinCase& pin, std::size_t kinds = kNumKinds) {
  PinBatch out;
  util::Rng rng(0x1055 + pin.batch * 1000 + pin.classes);
  out.logits = Tensor({pin.batch, pin.classes});
  out.labels.resize(pin.batch);
  for (std::size_t b = 0; b < pin.batch; ++b) {
    fill_row(rng, static_cast<RowKind>((pin.first_kind + b) % kinds), b,
             out.logits.raw() + b * pin.classes, pin.classes);
    out.labels[b] = static_cast<std::int32_t>(rng.uniform_int(pin.classes));
  }
  out.grad = Tensor(out.logits.shape());
  out.result = softmax_cross_entropy(out.logits, out.labels, out.grad);
  return out;
}

std::uint64_t grad_and_accuracy_fnv(const PinBatch& run) {
  std::uint64_t hash = fnv1a64(kFnvBasis, run.grad.raw(),
                               run.grad.numel() * sizeof(float));
  return fnv1a64(hash, &run.result.accuracy, sizeof(double));
}

// The shapes the sweeps train (FEMNIST 16x62, CIFAR 16x10, and the small
// batches of the engine tests) plus a single class and a wide row. The
// hashes cover every gradient bit and the accuracy; they were recorded
// with the two-exp reference loss and hold for any faster kernel.
constexpr PinCase kPins[] = {
    {16, 62, 0, 0xab4af581aa477f35ULL}, {16, 10, 3, 0xbec529f103f4bcffULL},
    {4, 10, 4, 0x65f365e2cb6736c1ULL},  {8, 10, 1, 0x3e4a547b26eb5f89ULL},
    {1, 1, 0, 0x543141da1ce21888ULL},   {3, 300, 2, 0xad633b0c2fa165bcULL},
};

TEST(LossBitPins, GradientAndAccuracyBits) {
  for (const PinCase& pin : kPins) {
    SCOPED_TRACE(testing::Message() << pin.batch << "x" << pin.classes);
    const PinBatch run = run_pin_case(pin);
    const std::uint64_t got = grad_and_accuracy_fnv(run);
    if (got != pin.grad_and_accuracy_fnv) {
      std::printf("%zux%zu grad+accuracy fnv 0x%016llxULL\n", pin.batch,
                  pin.classes, static_cast<unsigned long long>(got));
    }
    EXPECT_EQ(got, pin.grad_and_accuracy_fnv);

    // The pins must agree with the oracle itself, not only with history.
    Tensor want_grad(run.logits.shape());
    const LossResult want = reference_loss(run.logits, run.labels, want_grad);
    EXPECT_EQ(std::memcmp(run.grad.raw(), want_grad.raw(),
                          want_grad.numel() * sizeof(float)),
              0);
    EXPECT_EQ(run.result.accuracy, want.accuracy);
  }
}

// The mean loss's own bits, over the pinned shapes with finite rows only
// (a non-finite row makes the mean NaN or inf). The certified kernel's
// log-sum-exp is not the reference's, so these were recorded with it; the
// avx2 and default clones, and a -march=x86-64-v3 build, must all give
// them. The tolerance against the oracle is the differential test's.
TEST(LossBitPins, LossValueBits) {
  constexpr std::uint64_t kLossFnv[] = {
      0x9fddcbb22bc739f5ULL, 0xf7eea6ed9d863ffdULL, 0x2492fa3c639b4a44ULL,
      0x97a79aae107dc02bULL, 0xa8c7f832281a39c5ULL, 0x7e166f867f59e6f2ULL,
  };
  for (std::size_t i = 0; i < std::size(kPins); ++i) {
    const PinCase& pin = kPins[i];
    SCOPED_TRACE(testing::Message() << pin.batch << "x" << pin.classes);
    const PinBatch run = run_pin_case(pin, kPlusInf);
    const std::uint64_t got =
        fnv1a64(kFnvBasis, &run.result.loss, sizeof(double));
    if (got != kLossFnv[i]) {
      std::printf("%zux%zu loss fnv 0x%016llxULL\n", pin.batch, pin.classes,
                  static_cast<unsigned long long>(got));
    }
    EXPECT_EQ(got, kLossFnv[i]);

    Tensor want_grad(run.logits.shape());
    const LossResult want = reference_loss(run.logits, run.labels, want_grad);
    EXPECT_EQ(std::memcmp(run.grad.raw(), want_grad.raw(),
                          want_grad.numel() * sizeof(float)),
              0);
    EXPECT_LE(std::fabs(run.result.loss - want.loss), 1e-12 * 1001.0);
  }
}

/// Largest |logit| of a batch, for the loss tolerance.
double max_abs(const Tensor& t) {
  double out = 0.0;
  for (const float v : t.data()) out = std::max(out, std::fabs(double{v}));
  return out;
}

// A million random rows against the oracle: 1 to 300 classes (the FEMNIST
// and CIFAR widths most often), scales from 1e-2 to 1e2, random offsets,
// spikes, and now and then a span past 700. Gradients must match bit for
// bit and accuracies exactly. The mean loss may differ in its last bits:
// per row the log-sum-exp of a kernel with other exp and summation
// roundings moves by at most ~1e-13 for 300 classes, and the batch mean
// adds roundings of at most ~2^-52 times the summed row losses, each of
// which is below twice the largest |logit| plus log(300). The tolerance
// 1e-12 * (1 + max|logit|) covers both with margin.
TEST(LossDifferential, MillionRowsMatchTheDoubleExpReference) {
  constexpr std::size_t kRows = 1'000'000;
  util::Rng rng(0xd1ff);
  std::size_t rows = 0;
  std::size_t batches = 0;
  std::size_t mismatched_batches = 0;
  double worst_loss_delta = 0.0;
  Tensor logits;
  Tensor grad;
  Tensor want_grad;
  std::vector<std::int32_t> labels;
  while (rows < kRows) {
    const auto batch = static_cast<std::size_t>(1 + rng.uniform_int(16));
    const std::uint64_t width = rng.uniform_int(10);
    const std::size_t classes =
        width < 4   ? 62
        : width < 7 ? 10
                    : static_cast<std::size_t>(1 + rng.uniform_int(300));
    const double scale = std::pow(10.0, -2.0 + 4.0 * rng.uniform());
    const double offset = rng.normal() * 10.0 * scale;
    const tensor::Shape shape{batch, classes};
    logits.resize(shape);
    grad.resize(shape);
    want_grad.resize(shape);
    labels.resize(batch);
    for (std::size_t b = 0; b < batch; ++b) {
      float* row = logits.raw() + b * classes;
      for (std::size_t c = 0; c < classes; ++c) {
        row[c] = static_cast<float>(offset + rng.normal() * scale);
      }
      if (rng.bernoulli(0.2)) {
        row[rng.uniform_int(classes)] +=
            static_cast<float>(scale * 20.0 * rng.uniform());
      }
      if (rng.bernoulli(0.005)) {
        row[rng.uniform_int(classes)] += static_cast<float>(
            700.0 + 100.0 * rng.uniform());
      }
      labels[b] = static_cast<std::int32_t>(rng.uniform_int(classes));
    }
    const LossResult got = softmax_cross_entropy(logits, labels, grad);
    const LossResult want = reference_loss(logits, labels, want_grad);
    const bool same_grad =
        std::memcmp(grad.raw(), want_grad.raw(),
                    grad.numel() * sizeof(float)) == 0;
    if (!same_grad || got.accuracy != want.accuracy) ++mismatched_batches;
    const double delta = std::fabs(got.loss - want.loss);
    worst_loss_delta = std::max(worst_loss_delta, delta);
    EXPECT_LE(delta, 1e-12 * (1.0 + max_abs(logits)))
        << "batch " << batches << ": " << batch << "x" << classes;
    rows += batch;
    ++batches;
  }
  EXPECT_EQ(mismatched_batches, 0u) << "of " << batches << " batches";
  std::printf("%zu rows in %zu batches, max |loss delta| %.3g\n", rows,
              batches, worst_loss_delta);
}

// util::exp4d against expl over [-708, 0], evenly and densely near 0, at
// the ends and at the ln2/2 points where the reduction's k steps. The
// certified loss assumes a relative error of at most 2 * 2^-52; exp(0)
// must be exactly 1 (a row's maximum contributes exactly 1 to its sum).
TEST(Exp4d, WithinItsBudgetOverTheDomain) {
  double worst = 0.0;
  double worst_x = 0.0;
  const auto sweep = [&](const util::Vec4d& x) {
    util::Vec4d y;
    util::exp4d(x, y);
    for (std::size_t l = 0; l < 4; ++l) {
      const long double want = expl(static_cast<long double>(x[l]));
      const auto rel = static_cast<double>(
          fabsl(static_cast<long double>(y[l]) - want) / want);
      if (rel > worst) {
        worst = rel;
        worst_x = x[l];
      }
    }
  };
  constexpr long kEven = 4'000'000;
  for (long i = 0; i < kEven; i += 4) {
    util::Vec4d x;
    for (long l = 0; l < 4; ++l) {
      x[l] = -708.0 * static_cast<double>(i + l) / (kEven - 1);
    }
    sweep(x);
  }
  constexpr long kNearZero = 1'000'000;
  for (long i = 0; i < kNearZero; i += 4) {
    util::Vec4d x;
    for (long l = 0; l < 4; ++l) {
      x[l] = -2.0 * static_cast<double>(i + l) / kNearZero;
    }
    sweep(x);
  }
  util::Rng rng(0xe4d);
  for (long i = 0; i < 2000; ++i) {
    util::Vec4d x;
    for (long l = 0; l < 4; ++l) {
      const auto k = static_cast<double>(rng.uniform_int(1021));
      x[l] = std::min(-(k + 0.5) * 0.6931471805599453 +
                          (rng.uniform() - 0.5) * 0x1p-30,
                      0.0);
    }
    sweep(x);
  }
  sweep(util::Vec4d{0.0, -0.0, -708.0, -0x1p-60});
  sweep(util::Vec4d{-1e-300, -707.9999999, -0.5, -1.0});
  std::printf("exp4d max relative error %.4f * 2^-52 at x = %.17g\n",
              worst * 0x1p52, worst_x);
  EXPECT_LE(worst, 2.0 * 0x1p-52);

  util::Vec4d ones;
  util::exp4d(util::Vec4d{0.0, -0.0, 0.0, -0.0}, ones);
  for (std::size_t l = 0; l < 4; ++l) EXPECT_EQ(ones[l], 1.0);
}

/// Two-class rows {0, x}, x in [-16, -1], whose true probability
/// 1 / (1 + e^x) or e^x / (1 + e^x) lies within w = (24 + 2|x|)u
/// (u = 2^-53, relative) of a float rounding midpoint, found by a scan of x
/// over the floats in long double. The kernel's q is within 11u of the
/// truth (exp4d's 4u twice, the sum, 1 / S and the product), and its δ for
/// such a row is at least (47 + 2|x|)u, so the bracket
/// [q (1 - δ), q (1 + δ)], two roundings each, straddles the midpoint and
/// the row must fall back.
std::vector<float> near_midpoint_logits(std::size_t want) {
  // p in (0, 1): the float after or before f is one bit pattern away.
  const auto near = []<typename T>(T p, T window) {
    const auto f = static_cast<float>(p);
    const auto g = std::bit_cast<float>(std::bit_cast<std::uint32_t>(f) +
                                        (p > static_cast<T>(f) ? 1 : -1));
    const T mid = (static_cast<T>(f) + static_cast<T>(g)) / 2;
    return std::fabs(p - mid) <= window * p;
  };
  std::vector<float> found;
  // Negative floats grow in magnitude with their bit patterns.
  const auto first = std::bit_cast<std::uint32_t>(-1.0f);
  const auto last = std::bit_cast<std::uint32_t>(-16.0f);
  for (std::uint32_t bits = first; bits + 3 <= last && found.size() < want;
       bits += 4) {
    util::Vec4d x;
    for (std::uint32_t l = 0; l < 4; ++l) {
      x[l] = std::bit_cast<float>(bits + l);
    }
    // exp4d (within 1u) as a prefilter at twice the window; long double
    // decides.
    util::Vec4d e;
    util::exp4d(x, e);
    for (std::size_t l = 0; l < 4 && found.size() < want; ++l) {
      const double coarse_window = (24.0 - 2.0 * x[l]) * 0x1p-52;
      const double p0 = 1.0 / (1.0 + e[l]);
      if (!near(p0, coarse_window) && !near(e[l] * p0, coarse_window)) {
        continue;
      }
      const long double window = (24.0L - 2.0L * x[l]) * 0x1p-53L;
      const long double exact = expl(static_cast<long double>(x[l]));
      if (near(1.0L / (1.0L + exact), window) ||
          near(exact / (1.0L + exact), window)) {
        found.push_back(static_cast<float>(x[l]));
      }
    }
  }
  return found;
}

// Rows whose probabilities the kernel cannot certify go through the
// double-exp reference, and nn.loss.fallback_rows counts them; a batch of
// ordinary rows takes the fast path throughout.
TEST(LossFallback, MidpointRowsFallBackAndMatchTheReference) {
  const auto fallbacks = [] {
    return obs::snapshot().counter_value("nn.loss.fallback_rows");
  };
  const std::vector<float> xs = near_midpoint_logits(4);
  ASSERT_EQ(xs.size(), 4u);
  Tensor logits({xs.size(), 2});
  for (std::size_t b = 0; b < xs.size(); ++b) {
    logits.raw()[2 * b] = 0.0f;
    logits.raw()[2 * b + 1] = xs[b];
  }
  const std::vector<std::int32_t> labels(xs.size(), 0);
  Tensor grad(logits.shape());
  Tensor want_grad(logits.shape());
  const std::uint64_t before = fallbacks();
  const LossResult got = softmax_cross_entropy(logits, labels, grad);
  EXPECT_EQ(fallbacks() - before, xs.size());
  const LossResult want = reference_loss(logits, labels, want_grad);
  EXPECT_EQ(std::memcmp(grad.raw(), want_grad.raw(),
                        grad.numel() * sizeof(float)),
            0);
  EXPECT_EQ(got.accuracy, want.accuracy);
  // A fallen-back row's loss is the reference's own.
  EXPECT_EQ(got.loss, want.loss);

  const PinBatch plain = run_pin_case({16, 62, 0, 0}, kWide);
  const std::uint64_t plain_before = fallbacks();
  Tensor plain_grad(plain.logits.shape());
  softmax_cross_entropy(plain.logits, plain.labels, plain_grad);
  EXPECT_EQ(fallbacks(), plain_before);
}

}  // namespace
}  // namespace skiptrain::nn
