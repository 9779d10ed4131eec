#include "nn/pool.hpp"

#include <stdexcept>

#include "tensor/ops.hpp"

namespace skiptrain::nn {

MaxPool2d::MaxPool2d(std::size_t window) : window_(window) {
  if (window_ == 0) throw std::invalid_argument("MaxPool2d: window must be > 0");
}

std::string MaxPool2d::name() const {
  return "MaxPool2d(" + std::to_string(window_) + ")";
}

Shape MaxPool2d::output_shape(const Shape& input_shape) const {
  if (input_shape.size() != 4) {
    throw std::invalid_argument("MaxPool2d: expected [B, C, H, W], got " +
                                tensor::shape_to_string(input_shape));
  }
  if (input_shape[2] < window_ || input_shape[3] < window_) {
    throw std::invalid_argument("MaxPool2d: input smaller than window");
  }
  return {input_shape[0], input_shape[1], input_shape[2] / window_,
          input_shape[3] / window_};
}

template <typename Visit>
void MaxPool2d::for_each_argmax(const Tensor& input, Visit&& visit) const {
  const std::size_t batch = input.dim(0);
  const std::size_t channels = input.dim(1);
  const std::size_t h = input.dim(2);
  const std::size_t w = input.dim(3);
  const std::size_t oh = h / window_;
  const std::size_t ow = w / window_;

  const auto in = input.data();
  std::size_t out_idx = 0;
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t c = 0; c < channels; ++c) {
      const std::size_t plane = (b * channels + c) * h * w;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          std::size_t best_idx = plane + (oy * window_) * w + ox * window_;
          float best = in[best_idx];
          for (std::size_t ky = 0; ky < window_; ++ky) {
            for (std::size_t kx = 0; kx < window_; ++kx) {
              const std::size_t idx =
                  plane + (oy * window_ + ky) * w + (ox * window_ + kx);
              if (in[idx] > best) {
                best = in[idx];
                best_idx = idx;
              }
            }
          }
          visit(out_idx++, best_idx);
        }
      }
    }
  }
}

void MaxPool2d::forward(const Tensor& input, Tensor& output) {
  const auto in = input.data();
  const auto out = output.data();
  for_each_argmax(input, [&](std::size_t out_idx, std::size_t in_idx) {
    out[out_idx] = in[in_idx];
  });
}

void MaxPool2d::backward(const Tensor& input, const Tensor& grad_output,
                         Tensor& grad_input) {
  grad_input.zero();
  const auto gout = grad_output.data();
  const auto gin = grad_input.data();
  for_each_argmax(input, [&](std::size_t out_idx, std::size_t in_idx) {
    gin[in_idx] += gout[out_idx];
  });
}

std::unique_ptr<Layer> MaxPool2d::clone() const {
  return std::make_unique<MaxPool2d>(window_);
}

Shape Flatten::output_shape(const Shape& input_shape) const {
  if (input_shape.empty()) {
    throw std::invalid_argument("Flatten: empty input shape");
  }
  std::size_t flat = 1;
  for (std::size_t i = 1; i < input_shape.size(); ++i) flat *= input_shape[i];
  return {input_shape[0], flat};
}

void Flatten::forward(const Tensor& input, Tensor& output) {
  tensor::copy(input.data(), output.data());
}

void Flatten::backward(const Tensor& input, const Tensor& grad_output,
                       Tensor& grad_input) {
  (void)input;
  tensor::copy(grad_output.data(), grad_input.data());
}

std::unique_ptr<Layer> Flatten::clone() const {
  return std::make_unique<Flatten>();
}

}  // namespace skiptrain::nn
