#include "tensor/ops.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace skiptrain::tensor {

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  assert(x.size() == y.size());
  const float* __restrict__ xs = x.data();
  float* __restrict__ ys = y.data();
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) ys[i] += alpha * xs[i];
}

void scale(std::span<float> x, float alpha) {
  for (auto& v : x) v *= alpha;
}

void copy(std::span<const float> src, std::span<float> dst) {
  assert(src.size() == dst.size());
  std::copy(src.begin(), src.end(), dst.begin());
}

void subtract(std::span<const float> a, std::span<const float> b,
              std::span<float> out) {
  assert(a.size() == b.size() && a.size() == out.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
}

double dot(std::span<const float> a, std::span<const float> b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return acc;
}

double squared_norm(std::span<const float> x) { return dot(x, x); }

double l2_distance(std::span<const float> a, std::span<const float> b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    acc += d * d;
  }
  return std::sqrt(acc);
}

// gemm_nn / gemm_nt / gemm_tn are implemented in tensor/gemm.cpp: blocked,
// packing kernels dispatching against the retained seed loops (gemm_*_ref
// in tensor/gemm.hpp), bitwise identical to them on every input.

void softmax_rows(std::size_t rows, std::size_t cols, std::span<float> x) {
  assert(x.size() >= rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    float* __restrict__ row = x.data() + r * cols;
    float max_val = row[0];
    for (std::size_t c = 1; c < cols; ++c) max_val = std::max(max_val, row[c]);
    float sum = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) {
      row[c] = std::exp(row[c] - max_val);
      sum += row[c];
    }
    const float inv = 1.0f / sum;
    for (std::size_t c = 0; c < cols; ++c) row[c] *= inv;
  }
}

std::size_t argmax(std::span<const float> x) {
  assert(!x.empty());
  std::size_t best = 0;
  for (std::size_t i = 1; i < x.size(); ++i) {
    if (x[i] > x[best]) best = i;
  }
  return best;
}

}  // namespace skiptrain::tensor
