#include "nn/im2col.hpp"

#include <algorithm>
#include <cstring>

namespace skiptrain::nn {

namespace {

/// Clipped kernel-offset range for one output position: the ko in
/// [lo, hi) with 0 <= base + ko < in_extent, where base = o*stride - pad.
struct KernelRange {
  std::size_t lo;
  std::size_t hi;  // exclusive; lo >= hi means no valid offset
};

KernelRange clipped_kernel_range(std::size_t k, std::size_t in_extent,
                                 std::ptrdiff_t base) {
  const std::size_t lo =
      base < 0 ? static_cast<std::size_t>(-base) : std::size_t{0};
  const auto room = static_cast<std::size_t>(
      std::max<std::ptrdiff_t>(0, static_cast<std::ptrdiff_t>(in_extent) -
                                      base));
  return {lo, std::min(k, room)};
}

/// Valid output-position range for kernel offset ko on an extent of
/// `in_extent`: positions o with 0 <= o*stride + ko - pad < in_extent,
/// clamped to [0, out_extent).
struct OutRange {
  std::size_t lo;
  std::size_t hi;  // exclusive
};

OutRange valid_out_range(std::size_t out_extent, std::size_t in_extent,
                         std::size_t stride, std::size_t pad, std::size_t ko) {
  const auto s = static_cast<std::ptrdiff_t>(stride);
  const auto off = static_cast<std::ptrdiff_t>(ko) -
                   static_cast<std::ptrdiff_t>(pad);  // in = o*s + off
  std::ptrdiff_t lo = 0;
  if (off < 0) lo = (-off + s - 1) / s;
  std::ptrdiff_t hi = 0;
  const std::ptrdiff_t last_in = static_cast<std::ptrdiff_t>(in_extent) - 1;
  if (last_in - off >= 0) hi = (last_in - off) / s + 1;
  lo = std::min<std::ptrdiff_t>(lo, static_cast<std::ptrdiff_t>(out_extent));
  hi = std::clamp<std::ptrdiff_t>(hi, lo,
                                  static_cast<std::ptrdiff_t>(out_extent));
  return {static_cast<std::size_t>(lo), static_cast<std::size_t>(hi)};
}

}  // namespace

void im2col_kmajor(const ConvGeometry& g, const float* image, float* col) {
  const std::size_t ohw = g.out_hw();
  std::size_t kappa = 0;
  for (std::size_t ic = 0; ic < g.in_c; ++ic) {
    const float* __restrict__ in_plane = image + ic * g.h * g.w;
    for (std::size_t ky = 0; ky < g.k; ++ky) {
      for (std::size_t kx = 0; kx < g.k; ++kx, ++kappa) {
        float* __restrict__ row = col + kappa * ohw;
        const OutRange xr = valid_out_range(g.ow, g.w, g.stride, g.pad, kx);
        for (std::size_t oy = 0; oy < g.oh; ++oy) {
          float* __restrict__ seg = row + oy * g.ow;
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * g.stride + ky) -
              static_cast<std::ptrdiff_t>(g.pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.h)) {
            std::fill(seg, seg + g.ow, 0.0f);
            continue;
          }
          std::fill(seg, seg + xr.lo, 0.0f);
          std::fill(seg + xr.hi, seg + g.ow, 0.0f);
          const float* __restrict__ src =
              in_plane + static_cast<std::size_t>(iy) * g.w;
          if (xr.lo >= xr.hi) {
            // Fully clipped row (kernel overhangs the whole extent); the
            // empty-range guard also keeps the offset arithmetic below
            // from underflowing.
          } else if (g.stride == 1) {
            // ix = ox + kx - pad is contiguous in ox.
            const std::size_t ix0 = static_cast<std::size_t>(
                static_cast<std::ptrdiff_t>(xr.lo + kx) -
                static_cast<std::ptrdiff_t>(g.pad));
            std::memcpy(seg + xr.lo, src + ix0,
                        (xr.hi - xr.lo) * sizeof(float));
          } else {
            for (std::size_t ox = xr.lo; ox < xr.hi; ++ox) {
              seg[ox] = src[ox * g.stride + kx - g.pad];
            }
          }
        }
      }
    }
  }
}

void im2row_posmajor(const ConvGeometry& g, const float* image, float* colr) {
  const std::size_t kk = g.k * g.k;
  const std::size_t patch = g.patch();
  for (std::size_t oy = 0; oy < g.oh; ++oy) {
    const std::ptrdiff_t iy0 = static_cast<std::ptrdiff_t>(oy * g.stride) -
                               static_cast<std::ptrdiff_t>(g.pad);
    for (std::size_t ox = 0; ox < g.ow; ++ox) {
      const std::ptrdiff_t ix0 = static_cast<std::ptrdiff_t>(ox * g.stride) -
                                 static_cast<std::ptrdiff_t>(g.pad);
      float* __restrict__ row = colr + (oy * g.ow + ox) * patch;
      const KernelRange xr = clipped_kernel_range(g.k, g.w, ix0);
      const std::size_t kx_lo = xr.lo;
      const std::size_t kx_hi = xr.hi;
      for (std::size_t ic = 0; ic < g.in_c; ++ic) {
        const float* __restrict__ in_plane = image + ic * g.h * g.w;
        float* __restrict__ dst = row + ic * kk;
        for (std::size_t ky = 0; ky < g.k; ++ky) {
          float* __restrict__ seg = dst + ky * g.k;
          const std::ptrdiff_t iy = iy0 + static_cast<std::ptrdiff_t>(ky);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.h) ||
              kx_lo >= kx_hi) {
            std::fill(seg, seg + g.k, 0.0f);
            continue;
          }
          std::fill(seg, seg + kx_lo, 0.0f);
          std::fill(seg + kx_hi, seg + g.k, 0.0f);
          // ix = ix0 + kx is contiguous in kx.
          std::memcpy(seg + kx_lo,
                      in_plane + static_cast<std::size_t>(iy) * g.w +
                          static_cast<std::size_t>(
                              ix0 + static_cast<std::ptrdiff_t>(kx_lo)),
                      (kx_hi - kx_lo) * sizeof(float));
        }
      }
    }
  }
}

void transpose(std::size_t rows, std::size_t cols, const float* src,
               float* dst) {
  // Small 8x8 tiles keep both streams cache-resident; the matrices here
  // (gradient planes) are at most a few hundred KB.
  constexpr std::size_t kTile = 8;
  for (std::size_t i0 = 0; i0 < rows; i0 += kTile) {
    const std::size_t i1 = std::min(rows, i0 + kTile);
    for (std::size_t j0 = 0; j0 < cols; j0 += kTile) {
      const std::size_t j1 = std::min(cols, j0 + kTile);
      for (std::size_t i = i0; i < i1; ++i) {
        for (std::size_t j = j0; j < j1; ++j) {
          dst[j * rows + i] = src[i * cols + j];
        }
      }
    }
  }
}

}  // namespace skiptrain::nn
