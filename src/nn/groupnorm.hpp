// Group normalisation (Wu & He, 2018) over [B, C, H, W] tensors.
//
// The paper's CIFAR-10 model is the GN-LeNet used by DecentralizePy: three
// 5x5 conv blocks each followed by GroupNorm. Including GN gives our
// make_cifar_cnn() the exact 89 834-parameter count reported in Table 1.
// GN (rather than BatchNorm) matters in decentralized learning because it
// carries no cross-batch running statistics that would leak between nodes.
#pragma once

#include "nn/layer.hpp"

namespace skiptrain::nn {

class GroupNorm final : public ParamLayer {
 public:
  /// `channels` must be divisible by `num_groups`.
  GroupNorm(std::size_t num_groups, std::size_t channels, float eps = 1e-5f);

  std::string name() const override;
  Shape output_shape(const Shape& input_shape) const override;
  void forward(const Tensor& input, Tensor& output) override;
  void backward(const Tensor& input, const Tensor& grad_output,
                Tensor& grad_input) override;

  std::unique_ptr<Layer> clone() const override;

 private:
  std::size_t groups_;
  std::size_t channels_;
  float eps_;
  // ParamLayer::params_ holds gamma[C] then beta[C].
};

}  // namespace skiptrain::nn
