// Spatial pooling and shape adapters.
#pragma once

#include "nn/layer.hpp"

namespace skiptrain::nn {

/// Max pooling over [B, C, H, W] with square window and stride == window.
/// Each window's maximum is its first maximum in row-major order from the
/// window origin under strict `>`: ties go to the earlier element, a NaN at
/// the origin wins and a NaN elsewhere never does. Backward routes each
/// output gradient to that element, finding it again in `input`.
class MaxPool2d final : public Layer {
 public:
  explicit MaxPool2d(std::size_t window);

  std::string name() const override;
  Shape output_shape(const Shape& input_shape) const override;
  void forward(const Tensor& input, Tensor& output) override;
  void backward(const Tensor& input, const Tensor& grad_output,
                Tensor& grad_input) override;
  std::unique_ptr<Layer> clone() const override;

 private:
  /// Calls visit(out_index, in_index) for every output element and the
  /// flat input index of its window's maximum, in output order.
  template <typename Visit>
  void for_each_argmax(const Tensor& input, Visit&& visit) const;

  std::size_t window_;
};

/// Collapses every per-sample dimension into one: [B, ...] -> [B, prod].
class Flatten final : public Layer {
 public:
  std::string name() const override { return "Flatten"; }
  Shape output_shape(const Shape& input_shape) const override;
  void forward(const Tensor& input, Tensor& output) override;
  void backward(const Tensor& input, const Tensor& grad_output,
                Tensor& grad_input) override;
  std::unique_ptr<Layer> clone() const override;
};

}  // namespace skiptrain::nn
