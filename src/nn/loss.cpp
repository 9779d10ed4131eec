#include "nn/loss.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace skiptrain::nn {

namespace {

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

}  // namespace

std::size_t argmax(std::span<const float> row) {
  std::size_t pred = 0;
  for (std::size_t c = 1; c < row.size(); ++c) {
    if (row[c] > row[pred]) pred = c;
  }
  return pred;
}

LossResult softmax_cross_entropy(const tensor::Tensor& logits,
                                 std::span<const std::int32_t> labels,
                                 tensor::Tensor& grad_logits) {
  const std::size_t batch = logits.dim(0);
  const std::size_t classes = logits.numel() / batch;
  assert(labels.size() == batch);
  assert(grad_logits.shape() == logits.shape());

  double total_loss = 0.0;
  std::size_t correct = 0;
  const float inv_batch = 1.0f / static_cast<float>(batch);

  for (std::size_t b = 0; b < batch; ++b) {
    const float* row = logits.raw() + b * classes;
    float* grad = grad_logits.raw() + b * classes;
    const auto label = static_cast<std::size_t>(labels[b]);
    assert(label < classes);

    const double lse = log_sum_exp(row, classes);
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
