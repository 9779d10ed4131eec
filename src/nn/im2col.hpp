// Patch-matrix (im2col / im2row) lowering for Conv2d.
//
// The convolution's k-dimension is the patch index κ = (ic*k + ky)*k + kx,
// ordered (ic, ky, kx) — exactly the direct loop's accumulation order —
// so running the lowered GEMM with the repo's order-preserving kernels
// reproduces the direct convolution bitwise (see conv2d.hpp for the exact
// contract). Out-of-bounds (padding) slots are stored as 0.0f.
//
// The same im2col_kmajor builds the input gradient's patches: run over
// the output-gradient planes (out_c channels) with the flipped kernel, a
// stride-1 convolution whose patch index is (oc, a, b) with a = k-1-ky,
// b = k-1-kx — per input pixel, the direct backward loop's (oc, oy, ox)
// order.
#pragma once

#include <cstddef>

namespace skiptrain::nn {

/// Geometry of one conv application on an h x w input image.
struct ConvGeometry {
  std::size_t in_c = 0;
  std::size_t h = 0;
  std::size_t w = 0;
  std::size_t k = 0;       // kernel size
  std::size_t stride = 1;
  std::size_t pad = 0;
  std::size_t oh = 0;
  std::size_t ow = 0;

  /// im2col k-dimension: in_c * k * k.
  [[nodiscard]] std::size_t patch() const { return in_c * k * k; }
  /// Output positions per channel plane.
  [[nodiscard]] std::size_t out_hw() const { return oh * ow; }
  /// A 1x1/stride-1/no-pad conv's patch matrix IS the input image.
  [[nodiscard]] bool patches_are_image() const {
    return k == 1 && stride == 1 && pad == 0;
  }
};

/// col[κ][pos] (patch-major, [patch() x out_hw()]): the B operand of the
/// forward and input-gradient GEMMs. Interior segments are copied
/// contiguously; padding is zeroed.
void im2col_kmajor(const ConvGeometry& g, const float* image, float* col);

/// colr[pos][κ] (position-major, [out_hw() x patch()]): the dW GEMM's B
/// operand (gemm_tn wants the shared dimension — output positions —
/// outermost).
void im2row_posmajor(const ConvGeometry& g, const float* image, float* colr);

/// dst[j][i] = src[i][j] for row-major src of shape [rows x cols].
void transpose(std::size_t rows, std::size_t cols, const float* src,
               float* dst);

}  // namespace skiptrain::nn
