// A dense row-major float tensor. This is the storage type underneath the
// nn:: layers; it deliberately supports only what decentralized SGD needs:
// contiguous storage, shape bookkeeping, and cheap span access. All heavy
// math lives in tensor/ops.hpp as free functions over spans.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace skiptrain::tensor {

/// Shape of a tensor; index 0 is the outermost (slowest-varying) dimension.
using Shape = std::vector<std::size_t>;

[[nodiscard]] std::size_t shape_numel(const Shape& shape);
[[nodiscard]] std::string shape_to_string(const Shape& shape);

class Tensor {
 public:
  Tensor() = default;

  /// Allocates a zero-initialised tensor of the given shape.
  explicit Tensor(Shape shape);
  Tensor(std::initializer_list<std::size_t> dims);

  const Shape& shape() const { return shape_; }
  std::size_t dim(std::size_t i) const;
  std::size_t rank() const { return shape_.size(); }
  std::size_t numel() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  std::span<float> data() { return data_; }
  std::span<const float> data() const { return data_; }
  float* raw() { return data_.data(); }
  const float* raw() const { return data_.data(); }

  /// 1-D / 2-D element access with bounds assertions (debug builds).
  float& at(std::size_t i);
  float at(std::size_t i) const;
  float& at(std::size_t row, std::size_t col);
  float at(std::size_t row, std::size_t col) const;

  /// Row view for a rank>=2 tensor: the contiguous slice [row * stride,
  /// (row+1) * stride) where stride = numel / dim(0).
  std::span<float> row(std::size_t r);

  void fill(float value);
  void zero() { fill(0.0f); }

  /// Reinterprets the tensor with a new shape of identical element count.
  void reshape(Shape new_shape);

  /// Gives the tensor `shape`, whose element count may differ, keeping the
  /// allocation when it is large enough. The contents are unspecified
  /// afterwards: this is for scratch the next writer overwrites.
  void resize(const Shape& shape);

 private:
  Shape shape_;
  std::vector<float> data_;
};

}  // namespace skiptrain::tensor
