#include "tensor/tensor.hpp"

#include <cassert>
#include <sstream>
#include <stdexcept>

namespace skiptrain::tensor {

std::size_t shape_numel(const Shape& shape) {
  std::size_t n = 1;
  for (const std::size_t d : shape) n *= d;
  return shape.empty() ? 0 : n;
}

std::string shape_to_string(const Shape& shape) {
  std::ostringstream out;
  out << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) out << ", ";
    out << shape[i];
  }
  out << ']';
  return out.str();
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)), data_(shape_numel(shape_), 0.0f) {}

Tensor::Tensor(std::initializer_list<std::size_t> dims)
    : Tensor(Shape(dims)) {}

std::size_t Tensor::dim(std::size_t i) const {
  assert(i < shape_.size());
  return shape_[i];
}

float& Tensor::at(std::size_t i) {
  assert(i < data_.size());
  return data_[i];
}

float Tensor::at(std::size_t i) const {
  assert(i < data_.size());
  return data_[i];
}

float& Tensor::at(std::size_t r, std::size_t c) {
  assert(rank() >= 2);
  const std::size_t cols = numel() / shape_[0];
  assert(r < shape_[0] && c < cols);
  return data_[r * cols + c];
}

float Tensor::at(std::size_t r, std::size_t c) const {
  return const_cast<Tensor*>(this)->at(r, c);
}

std::span<float> Tensor::row(std::size_t r) {
  assert(rank() >= 1 && shape_[0] > 0);
  const std::size_t stride = numel() / shape_[0];
  assert(r < shape_[0]);
  return std::span<float>(data_.data() + r * stride, stride);
}

std::span<const float> Tensor::row(std::size_t r) const {
  assert(rank() >= 1 && shape_[0] > 0);
  const std::size_t stride = numel() / shape_[0];
  assert(r < shape_[0]);
  return std::span<const float>(data_.data() + r * stride, stride);
}

void Tensor::fill(float value) {
  for (auto& v : data_) v = value;
}

void Tensor::reshape(Shape new_shape) {
  if (shape_numel(new_shape) != numel()) {
    throw std::invalid_argument("Tensor::reshape: element count mismatch " +
                                shape_to_string(shape_) + " -> " +
                                shape_to_string(new_shape));
  }
  shape_ = std::move(new_shape);
}

void Tensor::resize(const Shape& shape) {
  shape_ = shape;
  data_.resize(shape_numel(shape_));
}

}  // namespace skiptrain::tensor
