// Implicit patch-matrix (im2col) lowering for Conv2d.
//
// The convolution's k-dimension is the patch index κ = (ic*k + ky)*k + kx,
// ordered (ic, ky, kx) — exactly the direct loop's accumulation order —
// so running the lowered GEMM with the repo's order-preserving kernels
// reproduces the direct convolution bitwise (see conv2d.hpp for the exact
// contract).
//
// The patch matrix is never built. Each image is staged once, zero-padded
// (stage_planes), and two offset tables address it (patch_offsets):
// col[κ][pos] = padded[kappa_off[κ] + pos_off[pos]], so a padding slot
// reads a staged 0.0f. The GEMM packs its B panels straight from the
// staged image through the tables (tensor::IndexedB): κ-major for the
// forward and input-gradient GEMMs, and position-major, the two tables
// swapped, for the weight gradient.
//
// The input gradient is the same construction over the output-gradient
// planes: a stride-1 convolution with the flipped kernel over the planes
// dilated by the stride and padded by k-1-pad (cropped where pad >= k).
// Its patch index is (oc, a, b) with a = k-1-ky, b = k-1-kx — per input
// pixel, the direct backward loop's (oc, oy, ox) order.
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
  /// Extents of one zero-padded input plane.
  [[nodiscard]] std::size_t padded_h() const { return h + 2 * pad; }
  [[nodiscard]] std::size_t padded_w() const { return w + 2 * pad; }
};

/// Offset tables of the implicit patch matrix over the zero-padded image
/// ([in_c x padded_h() x padded_w()]): kappa_off gets patch() entries
/// (ic * padded_h() + ky) * padded_w() + kx, pos_off gets out_hw() entries
/// (oy * padded_w() + ox) * stride. Both are strictly increasing.
void patch_offsets(const ConvGeometry& g, std::size_t* kappa_off,
                   std::size_t* pos_off);

/// Zero-fills `planes` planes of ph x pw floats at dst, then places each
/// h x w source plane's (y, x) at (origin + y * step, origin + x * step)
/// wherever that lands inside. origin = pad, step = 1 pads an image;
/// the input gradient dilates by the stride and may crop (origin < 0).
void stage_planes(std::size_t planes, std::size_t h, std::size_t w,
                  const float* src, std::ptrdiff_t origin, std::size_t step,
                  std::size_t ph, std::size_t pw, float* dst);

}  // namespace skiptrain::nn
