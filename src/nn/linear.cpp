#include "nn/linear.hpp"

#include <stdexcept>

#include "tensor/ops.hpp"
#include "util/isa.hpp"

namespace skiptrain::nn {

namespace {

// The bias passes run as avx2 code on AVX2 hosts. GCC does not
// multiversion a virtual function, so forward and backward call these
// clones; each element takes the same one add in every clone.

/// y[i][j] += b[j] over `rows` rows of `cols`.
SKIPTRAIN_GEMM_CLONES
void add_bias(float* y, const float* b, std::size_t rows, std::size_t cols) {
  for (std::size_t i = 0; i < rows; ++i) {
    float* row = y + i * cols;
    for (std::size_t j = 0; j < cols; ++j) row[j] += b[j];
  }
}

/// db[j] += dy[i][j] for i ascending: the column sums of `rows` rows.
SKIPTRAIN_GEMM_CLONES
void add_column_sums(const float* dy, float* db, std::size_t rows,
                     std::size_t cols) {
  for (std::size_t i = 0; i < rows; ++i) {
    const float* row = dy + i * cols;
    for (std::size_t j = 0; j < cols; ++j) db[j] += row[j];
  }
}

}  // namespace

Linear::Linear(std::size_t in_features, std::size_t out_features)
    : ParamLayer(in_features * out_features + out_features),
      in_(in_features),
      out_(out_features) {}

std::string Linear::name() const {
  return "Linear(" + std::to_string(in_) + "->" + std::to_string(out_) + ")";
}

Shape Linear::output_shape(const Shape& input_shape) const {
  if (input_shape.size() != 2 || input_shape[1] != in_) {
    throw std::invalid_argument("Linear: expected input [B, " +
                                std::to_string(in_) + "], got " +
                                tensor::shape_to_string(input_shape));
  }
  return {input_shape[0], out_};
}

void Linear::forward(const Tensor& input, Tensor& output) {
  const std::size_t batch = input.dim(0);
  const std::span<const float> w{params_.data(), in_ * out_};
  const std::span<const float> b{params_.data() + in_ * out_, out_};
  // y[B, out] = x[B, in] * W[out, in]^T
  tensor::gemm_nt(batch, in_, out_, input.data(), w, output.data());
  add_bias(output.raw(), b.data(), batch, out_);
}

void Linear::backward(const Tensor& input, const Tensor& grad_output,
                      Tensor& grad_input) {
  const std::size_t batch = input.dim(0);
  const std::span<const float> w{params_.data(), in_ * out_};
  std::span<float> grad_w{grads_.data(), in_ * out_};
  std::span<float> grad_b{grads_.data() + in_ * out_, out_};

  // dW[out, in] += dY[B, out]^T * X[B, in]
  tensor::gemm_tn(out_, batch, in_, grad_output.data(), input.data(), grad_w,
                  /*beta=*/1.0f);
  // db += column sums of dY
  add_column_sums(grad_output.raw(), grad_b.data(), batch, out_);
  // dX[B, in] = dY[B, out] * W[out, in], unless not needed (empty).
  if (!grad_input.empty()) {
    tensor::gemm_nn(batch, out_, in_, grad_output.data(), w, grad_input.data());
  }
}

std::unique_ptr<Layer> Linear::clone() const {
  auto copy = std::make_unique<Linear>(in_, out_);
  copy->params_ = params_;
  return copy;
}

}  // namespace skiptrain::nn
