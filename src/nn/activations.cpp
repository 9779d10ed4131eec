#include "nn/activations.hpp"

#include <cassert>
#include <cmath>

namespace skiptrain::nn {

Shape ReLU::output_shape(const Shape& input_shape) const {
  return input_shape;
}

void ReLU::forward(const Tensor& input, Tensor& output) {
  assert(input.numel() == output.numel());
  const auto in = input.data();
  const auto out = output.data();
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = in[i] > 0.0f ? in[i] : 0.0f;
  }
}

void ReLU::backward(const Tensor& input, const Tensor& grad_output,
                    Tensor& grad_input) {
  assert(input.numel() == grad_output.numel());
  const auto in = input.data();
  const auto gout = grad_output.data();
  const auto gin = grad_input.data();
  // Load unconditionally, then select: a load under the condition is
  // control flow the vectorizer rejects.
  for (std::size_t i = 0; i < in.size(); ++i) {
    const float g = gout[i];
    gin[i] = in[i] > 0.0f ? g : 0.0f;
  }
}

std::unique_ptr<Layer> ReLU::clone() const { return std::make_unique<ReLU>(); }

Shape Tanh::output_shape(const Shape& input_shape) const {
  return input_shape;
}

void Tanh::forward(const Tensor& input, Tensor& output) {
  assert(input.numel() == output.numel());
  const auto in = input.data();
  const auto out = output.data();
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = std::tanh(in[i]);
}

void Tanh::backward(const Tensor& input, const Tensor& grad_output,
                    Tensor& grad_input) {
  const auto in = input.data();
  const auto gout = grad_output.data();
  const auto gin = grad_input.data();
  for (std::size_t i = 0; i < in.size(); ++i) {
    const float t = std::tanh(in[i]);
    gin[i] = gout[i] * (1.0f - t * t);
  }
}

std::unique_ptr<Layer> Tanh::clone() const { return std::make_unique<Tanh>(); }

}  // namespace skiptrain::nn
