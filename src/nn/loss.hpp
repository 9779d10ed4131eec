// Fused softmax + cross-entropy, the training criterion used throughout the
// paper's evaluation ("trained with SGD and the Cross-Entropy loss").
#pragma once

#include <cstdint>
#include <span>

#include "tensor/tensor.hpp"

namespace skiptrain::nn {

struct LossResult {
  double loss = 0.0;      // mean over the batch
  double accuracy = 0.0;  // top-1 over the batch
};

/// Computes mean cross-entropy of `logits` [B, C] against integer labels
/// and writes d(loss)/d(logits) = (softmax - onehot)/B into `grad_logits`.
/// Each probability is (float)std::exp(x - lse) with lse a double
/// log-sum-exp, bit for bit: a vector kernel with one exp per logit
/// certifies that float per row, and a row it cannot certify takes those
/// expressions themselves (counted in the registry's
/// nn.loss.fallback_rows). The mean loss may differ from the two-exp
/// value in its last bits.
LossResult softmax_cross_entropy(const tensor::Tensor& logits,
                                 std::span<const std::int32_t> labels,
                                 tensor::Tensor& grad_logits);

/// Loss/accuracy only (no gradient); used by evaluation paths.
LossResult softmax_cross_entropy_eval(const tensor::Tensor& logits,
                                      std::span<const std::int32_t> labels);

/// Top-1 prediction of one logit row: starts at c = 0 and moves on a
/// strict `>` from c = 1, so the first maximum wins. Every comparison with
/// NaN is false: a NaN logit past c = 0 is never picked, and a NaN at
/// c = 0 is never displaced. Every accuracy in the library goes through
/// this, so the loss and the accuracy-only paths agree.
std::size_t argmax(std::span<const float> row);

}  // namespace skiptrain::nn
