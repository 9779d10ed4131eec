// Dense kernels used by the nn:: layers and the parameter-averaging step of
// the decentralized-learning engine. All matrices are row-major.
//
// Naming: gemm_ab where a/b in {n, t} describe whether A/B is used as-is or
// transposed, matching the BLAS convention. Only the three combinations the
// backprop pass needs are provided.
#pragma once

#include <cstddef>
#include <span>

namespace skiptrain::tensor {

// ---------------------------------------------------------------------------
// Level-1: vector ops
// ---------------------------------------------------------------------------

/// y += alpha * x
void axpy(float alpha, std::span<const float> x, std::span<float> y);

/// x *= alpha
void scale(std::span<float> x, float alpha);

/// dst = src
void copy(std::span<const float> src, std::span<float> dst);

/// out = a - b
void subtract(std::span<const float> a, std::span<const float> b,
              std::span<float> out);

/// Dot product.
[[nodiscard]] double dot(std::span<const float> a, std::span<const float> b);

/// Squared L2 norm.
[[nodiscard]] double squared_norm(std::span<const float> x);

/// Euclidean distance between two parameter vectors.
[[nodiscard]] double l2_distance(std::span<const float> a,
                                 std::span<const float> b);

// ---------------------------------------------------------------------------
// Level-3: matrix multiplication
//
// Implemented as cache-blocked, packing kernels (tensor/gemm.cpp) that are
// bitwise identical to the seed triple loops, which tensor/gemm.hpp
// retains as gemm_*_ref verification oracles.
// ---------------------------------------------------------------------------

/// C[m,n] = A[m,k] * B[k,n] + beta * C
void gemm_nn(std::size_t m, std::size_t k, std::size_t n,
             std::span<const float> a, std::span<const float> b,
             std::span<float> c, float beta = 0.0f);

/// C[m,n] = A[m,k] * B[n,k]^T + beta * C  (B stored row-major as [n,k])
void gemm_nt(std::size_t m, std::size_t k, std::size_t n,
             std::span<const float> a, std::span<const float> b,
             std::span<float> c, float beta = 0.0f);

/// C[m,n] = A[k,m]^T * B[k,n] + beta * C  (A stored row-major as [k,m])
void gemm_tn(std::size_t m, std::size_t k, std::size_t n,
             std::span<const float> a, std::span<const float> b,
             std::span<float> c, float beta = 0.0f);

/// A [k, n] B operand read in place through two offset tables:
/// B[p][j] = src[row_off[p] + col_off[j]], with col_off strictly
/// increasing. A convolution's patch matrix is one, over a zero-padded
/// image (nn/im2col.hpp), so it is never materialised.
struct IndexedB {
  const float* src;
  const std::size_t* row_off;  // k entries
  const std::size_t* col_off;  // n entries
};

/// C[m,n] = A[m,k] * B + beta * C, B given by offset tables; k > 0.
/// Always the blocked kernel, which packs B's panels straight from src;
/// bitwise equal to gemm_nn over the materialised B.
void gemm_nn_indexed(std::size_t m, std::size_t k, std::size_t n,
                     std::span<const float> a, const IndexedB& b,
                     std::span<float> c, float beta = 0.0f);

// ---------------------------------------------------------------------------
// NN-specific kernels
// ---------------------------------------------------------------------------

/// Row-wise in-place softmax over a [rows, cols] matrix (max-subtracted for
/// numerical stability).
void softmax_rows(std::size_t rows, std::size_t cols, std::span<float> x);

/// Index of the maximum element (first occurrence on ties).
[[nodiscard]] std::size_t argmax(std::span<const float> x);

}  // namespace skiptrain::tensor
