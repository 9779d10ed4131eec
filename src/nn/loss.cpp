#include "nn/loss.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/registry.hpp"
#include "util/isa.hpp"

namespace skiptrain::nn {

namespace {

using util::Mask4d;
using util::Mask8;
using util::Vec4;
using util::Vec4d;
using util::Vec4Unaligned;
using util::Vec8;
constexpr std::size_t kLanes = 4;

/// Row-stable log-sum-exp; returns max + log(sum(exp(x - max))).
double log_sum_exp(const float* row, std::size_t n) {
  float max_val = row[0];
  for (std::size_t i = 1; i < n; ++i) max_val = std::max(max_val, row[i]);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += std::exp(static_cast<double>(row[i]) - max_val);
  }
  return static_cast<double>(max_val) + std::log(sum);
}

/// The reference row: p_c = (float)std::exp(x_c - lse) with two double
/// std::exp per logit. Writes p_c * inv_batch and returns the row's lse.
double reference_row(const float* row, std::size_t n, float inv_batch,
                     float* grad) {
  const double lse = log_sum_exp(row, n);
  for (std::size_t c = 0; c < n; ++c) {
    const float p =
        static_cast<float>(std::exp(static_cast<double>(row[c]) - lse));
    grad[c] = p * inv_batch;
  }
  return lse;
}

/// The certified kernel's scratch: the exp values of a block of rows, each
/// padded to a whole Vec4d. Rows wider than this take the reference path.
constexpr std::size_t kScratch = 1024;
/// Most rows in one block.
constexpr std::size_t kBlockRows = 16;
/// Rows with a logit further than this below the maximum take the
/// reference path: every exp(x_c - max) is then a normal double, and so is
/// every probability of a row of at most kScratch classes.
constexpr double kMaxSpan = 700.0;

/// Lanes of n classes in whole Vec4ds.
constexpr std::size_t padded_width(std::size_t n) {
  return (n + kLanes - 1) / kLanes * kLanes;
}

/// The reference rows' bits from one exp per logit, for `rows` rows of n
/// classes (rows * padded_width(n) <= kScratch). Writes p_c * inv_batch
/// into grad and lse = max + log(sum) into lse[r] for every row it
/// certifies, and certified[r] = false for every other row, whose grad it
/// may have written.
///
/// With m the row maximum and d_c = (double)x_c - m (the reference's own
/// double), the kernel takes e_c = util::exp4d(d_c), S = the sum of the
/// e_c in lanes, and q_c = e_c * (1 / S). The reference takes S_ref = the
/// in-order sum of exp(d_c), lse_ref = m + log(S_ref) and
/// r_c = exp(x_c - lse_ref). Both are the true softmax exp(d_c) / T,
/// T = sum exp(d_c), times relative errors; |log(q_c / r_c)| is at most
/// the sum of (u = 2^-53):
///   - exp4d, on e_c and in S: 2 * 4u (its budget, 2 * 2^-52)
///   - glibc's exp, on r_c and in S_ref: 2 * 8u (4 ulp; glibc >= 2.28
///     claims under 1)
///   - the two sums: 2 * (n - 1)u. Summing nonnegative terms in any order
///     rounds at most n - 1 times on the way to any term.
///   - 1 / S and e_c * (1 / S): 2u
///   - glibc's log, 4 ulp of log(S_ref) <= L + 1 with L = log(S) >= 0
///     (the maximum's e is exactly 1, so S >= 1): 8u (L + 1)
///   - the rounding of lse_ref = m + log(S_ref): u (|m| + L + 1)
///   - the rounding of x_c - lse_ref, where |x_c - lse_ref| <= D + L + 2
///     with D = -min d_c: u (D + L + 2)
///   - the rounding of d_c itself, which the reference's exact x_c sees
///     and ours does not: u D
/// That is Λ0 = (37 + 2 (n - 1) + 10 L + |m| + 2 D) u; Λ = Λ0 (1 + 2^-20)
/// covers the second-order terms (each |log(1 + x)| <= |x| (1 + 2^-29)
/// while Λ <= 2^-30; wider rows fall back). So r_c lies in
/// [q_c e^-Λ, q_c e^Λ]. With δ = Λ + 8u, the computed q_c * (1 - δ) and
/// q_c * (1 + δ), two roundings each, still bracket that interval. Float
/// rounding is monotone: when both brackets round to the same float, that
/// float is (float)r_c, the reference's p_c, bit for bit.
///
/// A row fails on a non-finite maximum, a NaN, a span past kMaxSpan (an
/// -inf included) or a bracket that straddles a float rounding boundary.
SKIPTRAIN_GEMM_CLONES
void certified_rows(const float* logits, std::size_t rows, std::size_t n,
                    float inv_batch, float* grad_logits, double* lse,
                    bool* certified) {
  const std::size_t width = padded_width(n);
  const std::size_t full = n / kLanes * kLanes;
  const std::size_t tail = n - full;
  const Vec4d lowest = Vec4d{} - kMaxSpan;
  // The lanes of a row's last Vec4d that hold classes, when n % 4 != 0.
  Mask4d live{};
  for (std::size_t l = 0; l < tail; ++l) live[l] = -1;
  alignas(sizeof(Vec4d)) double e[kScratch];
  double max_of[kBlockRows];
  double span_of[kBlockRows];

  // Pass 1, row by row: the maximum, then d_c into e. A lane past n holds
  // d = 0, a NaN d or one below -kMaxSpan holds -kMaxSpan and fails the
  // row. The maximum is taken by lanes: a NaN that this skips, or that the
  // reference's scan would have kept, makes some d NaN; a maximum of -0.0
  // where the reference has +0.0 changes no d and no lse.
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = logits + r * n;
    double* d_row = e + r * width;
    Vec4 x_tail = Vec4{} + row[0];
    for (std::size_t l = 0; l < tail; ++l) x_tail[l] = row[full + l];
    Vec4 lane_max = x_tail;
    for (std::size_t i = 0; i < full; i += kLanes) {
      const Vec4 v = *reinterpret_cast<const Vec4Unaligned*>(row + i);
      lane_max = v > lane_max ? v : lane_max;
    }
    float max_val = lane_max[0];
    for (std::size_t l = 1; l < kLanes; ++l) {
      max_val = lane_max[l] > max_val ? lane_max[l] : max_val;
    }
    // A non-finite maximum makes every d NaN or -inf.
    certified[r] = std::isfinite(max_val);
    const double m = max_val;
    for (std::size_t l = tail; l < kLanes; ++l) x_tail[l] = max_val;

    Mask4d out_of_span{};
    Vec4d min_d{};
    for (std::size_t i = 0; i < width; i += kLanes) {
      const Vec4 x =
          i < full ? Vec4(*reinterpret_cast<const Vec4Unaligned*>(row + i))
                   : x_tail;
      Vec4d d = __builtin_convertvector(x, Vec4d) - m;
      const Mask4d in_span = d >= lowest;
      out_of_span |= ~in_span;
      d = in_span ? d : lowest;
      min_d = d < min_d ? d : min_d;
      *reinterpret_cast<Vec4d*>(d_row + i) = d;
    }
    if ((out_of_span[0] | out_of_span[1] | out_of_span[2] |
         out_of_span[3]) != 0) {
      certified[r] = false;
    }
    max_of[r] = m;
    span_of[r] =
        -std::min(std::min(min_d[0], min_d[1]), std::min(min_d[2], min_d[3]));
  }

  // Pass 2, the block's lanes in one stream: e_c = exp(d_c), four
  // independent chains a step (the Horner chain is latency-bound), then
  // two, then one.
  const std::size_t lanes = rows * width;
  std::size_t i = 0;
  for (; i + 4 * kLanes <= lanes; i += 4 * kLanes) {
    util::exp4d_n<4>(reinterpret_cast<Vec4d*>(e + i));
  }
  if (i + 2 * kLanes <= lanes) {
    util::exp4d_n<2>(reinterpret_cast<Vec4d*>(e + i));
    i += 2 * kLanes;
  }
  if (i < lanes) util::exp4d_n<1>(reinterpret_cast<Vec4d*>(e + i));

  // Pass 3, row by row: S, lse and the brackets of q_c; p_c * inv_batch
  // from the lower one.
  constexpr double kU = 0x1p-53;
  for (std::size_t r = 0; r < rows; ++r) {
    if (!certified[r]) continue;
    double* e_row = e + r * width;
    // The lanes past n hold exp(0) = 1; they become 0.
    if (tail != 0) {
      Vec4d& last = *reinterpret_cast<Vec4d*>(e_row + full);
      last = live ? last : Vec4d{};
    }
    Vec4d sum_even{};
    Vec4d sum_odd{};
    std::size_t pair = 0;
    for (; pair + 2 * kLanes <= width; pair += 2 * kLanes) {
      sum_even += *reinterpret_cast<const Vec4d*>(e_row + pair);
      sum_odd += *reinterpret_cast<const Vec4d*>(e_row + pair + kLanes);
    }
    if (pair < width) {
      sum_even += *reinterpret_cast<const Vec4d*>(e_row + pair);
    }
    const Vec4d sums = sum_even + sum_odd;
    const double s = (sums[0] + sums[1]) + (sums[2] + sums[3]);
    const double log_s = std::log(s);
    const double lambda =
        (37.0 + 2.0 * static_cast<double>(n - 1) + 10.0 * log_s +
         std::fabs(max_of[r]) + 2.0 * span_of[r]) *
        kU * (1.0 + 0x1p-20);
    if (!(lambda <= 0x1p-30)) {
      certified[r] = false;
      continue;
    }
    const double delta = lambda + 8.0 * kU;
    const double below = 1.0 - delta;
    const double above = 1.0 + delta;
    const double inv_s = 1.0 / s;
    float* grad = grad_logits + r * n;
    util::Mask4 straddles{};
    for (std::size_t c = 0; c < width; c += kLanes) {
      const Vec4d q = *reinterpret_cast<const Vec4d*>(e_row + c) * inv_s;
      const Vec4 lo = __builtin_convertvector(q * below, Vec4);
      const Vec4 hi = __builtin_convertvector(q * above, Vec4);
      straddles |= lo != hi;
      const Vec4 g = lo * inv_batch;
      if (c < full) {
        *reinterpret_cast<Vec4Unaligned*>(grad + c) = g;
      } else {
        for (std::size_t l = 0; l < tail; ++l) grad[c + l] = g[l];
      }
    }
    certified[r] =
        (straddles[0] | straddles[1] | straddles[2] | straddles[3]) == 0;
    lse[r] = max_of[r] + log_s;
  }
}

/// Rows this wide or wider take the lane form: at 10 classes the scan
/// measured faster, at 62 the lanes.
constexpr std::size_t kArgmaxLaneMin = 16;

/// The scan's answer without its moving-maximum branch, for rows of at
/// least 8 classes whose row[0] is not NaN. Each of 8 lanes keeps its own
/// running maximum and index, starting from row[0] at 0 and moving on the
/// scan's strict `>` over the classes it sees, in ascending order; a last
/// chunk that overlaps the one before covers n % 8. A lane so holds the
/// first of its classes equal to its maximum (NaN never passes `>`, -0.0
/// never displaces +0.0 nor the reverse), and the lanes combine by the
/// larger maximum, the smaller index on equal maxima: the first class
/// equal to the maximum of the non-NaN values, which is where the scan
/// stops.
SKIPTRAIN_GEMM_CLONES
std::size_t argmax_lanes(const float* x, std::size_t n) {
  constexpr std::size_t kWidth = sizeof(Vec8) / sizeof(float);
  constexpr Mask8 kLane{0, 1, 2, 3, 4, 5, 6, 7};
  Vec8 lane_max = Vec8{} + x[0];
  Mask8 lane_index{};
  const auto take = [&](std::size_t c) {
    const Vec8 v = util::vec_at(x + c);
    const Mask8 more = v > lane_max;
    lane_max = more ? v : lane_max;
    lane_index = more ? kLane + static_cast<int>(c) : lane_index;
  };
  for (std::size_t c = 0; c + kWidth <= n; c += kWidth) take(c);
  if (n % kWidth != 0) take(n - kWidth);
  for (const Mask8& swap : {Mask8{4, 5, 6, 7, 0, 1, 2, 3},
                            Mask8{2, 3, 0, 1, 6, 7, 4, 5},
                            Mask8{1, 0, 3, 2, 5, 4, 7, 6}}) {
    const Vec8 other_max = __builtin_shuffle(lane_max, swap);
    const Mask8 other_index = __builtin_shuffle(lane_index, swap);
    const Mask8 other = (other_max > lane_max) |
                        ((other_max == lane_max) & (other_index < lane_index));
    lane_max = other ? other_max : lane_max;
    lane_index = other ? other_index : lane_index;
  }
  return static_cast<std::size_t>(lane_index[0]);
}

}  // namespace

std::size_t argmax(std::span<const float> row) {
  const std::size_t n = row.size();
  const float* x = row.data();
  // A NaN at c = 0 is never displaced: the scan returns 0.
  if (n >= kArgmaxLaneMin && x[0] == x[0]) return argmax_lanes(x, n);
  std::size_t pred = 0;
  for (std::size_t c = 1; c < n; ++c) {
    if (x[c] > x[pred]) pred = c;
  }
  return pred;
}

LossResult softmax_cross_entropy(const tensor::Tensor& logits,
                                 std::span<const std::int32_t> labels,
                                 tensor::Tensor& grad_logits) {
  static const obs::Counter fallback_counter =
      obs::counter("nn.loss.fallback_rows");
  const std::size_t batch = logits.dim(0);
  const std::size_t classes = logits.numel() / batch;
  assert(labels.size() == batch);
  assert(grad_logits.shape() == logits.shape());

  double total_loss = 0.0;
  std::size_t correct = 0;
  std::size_t fallback_rows = 0;
  const float inv_batch = 1.0f / static_cast<float>(batch);

  // Rows go through the certified kernel in blocks; a row it does not
  // certify, or a row wider than its scratch, takes the reference path.
  const bool wide = padded_width(classes) > kScratch;
  const std::size_t block =
      wide ? 1 : std::min(kBlockRows, kScratch / padded_width(classes));
  double lse[kBlockRows];
  bool certified[kBlockRows] = {};
  for (std::size_t b0 = 0; b0 < batch; b0 += block) {
    const std::size_t rows = std::min(block, batch - b0);
    float* grad_block = grad_logits.raw() + b0 * classes;
    if (!wide) {
      certified_rows(logits.raw() + b0 * classes, rows, classes, inv_batch,
                     grad_block, lse, certified);
    }
    for (std::size_t r = 0; r < rows; ++r) {
      const float* row = logits.raw() + (b0 + r) * classes;
      float* grad = grad_block + r * classes;
      const auto label = static_cast<std::size_t>(labels[b0 + r]);
      assert(label < classes);
      if (!certified[r]) {
        lse[r] = reference_row(row, classes, inv_batch, grad);
        ++fallback_rows;
      }
      total_loss += lse[r] - static_cast<double>(row[label]);
      grad[label] -= inv_batch;
      if (argmax({row, classes}) == label) ++correct;
    }
  }
  if (fallback_rows != 0) fallback_counter.add(fallback_rows);

  return LossResult{total_loss / static_cast<double>(batch),
                    static_cast<double>(correct) / static_cast<double>(batch)};
}

LossResult softmax_cross_entropy_eval(const tensor::Tensor& logits,
                                      std::span<const std::int32_t> labels) {
  const std::size_t batch = logits.dim(0);
  const std::size_t classes = logits.numel() / batch;
  assert(labels.size() == batch);

  double total_loss = 0.0;
  std::size_t correct = 0;
  for (std::size_t b = 0; b < batch; ++b) {
    const float* row = logits.raw() + b * classes;
    const auto label = static_cast<std::size_t>(labels[b]);
    const double lse = log_sum_exp(row, classes);
    total_loss += lse - static_cast<double>(row[label]);
    if (argmax({row, classes}) == label) ++correct;
  }
  return LossResult{total_loss / static_cast<double>(batch),
                    static_cast<double>(correct) / static_cast<double>(batch)};
}

}  // namespace skiptrain::nn
