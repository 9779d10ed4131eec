#include "nn/im2col.hpp"

#include <algorithm>
#include <cstring>

namespace skiptrain::nn {

namespace {

/// Source indices i in [lo, hi) of an n-long axis whose landing spot
/// origin + i * step lies in [0, extent).
struct Landing {
  std::size_t lo;
  std::size_t hi;  // exclusive; lo >= hi means nothing lands
};

Landing landing_range(std::size_t n, std::size_t extent, std::ptrdiff_t origin,
                      std::size_t step) {
  const auto s = static_cast<std::ptrdiff_t>(step);
  const std::ptrdiff_t lo = origin < 0 ? (-origin + s - 1) / s : 0;
  const std::ptrdiff_t room = static_cast<std::ptrdiff_t>(extent) - origin;
  const std::ptrdiff_t hi = room > 0 ? (room - 1) / s + 1 : 0;
  const auto cap = static_cast<std::ptrdiff_t>(n);
  return {static_cast<std::size_t>(std::min(lo, cap)),
          static_cast<std::size_t>(std::min(hi, cap))};
}

}  // namespace

void patch_offsets(const ConvGeometry& g, std::size_t* kappa_off,
                   std::size_t* pos_off) {
  const std::size_t ph = g.padded_h();
  const std::size_t pw = g.padded_w();
  std::size_t kappa = 0;
  for (std::size_t ic = 0; ic < g.in_c; ++ic) {
    for (std::size_t ky = 0; ky < g.k; ++ky) {
      for (std::size_t kx = 0; kx < g.k; ++kx) {
        kappa_off[kappa++] = (ic * ph + ky) * pw + kx;
      }
    }
  }
  for (std::size_t oy = 0; oy < g.oh; ++oy) {
    for (std::size_t ox = 0; ox < g.ow; ++ox) {
      pos_off[oy * g.ow + ox] = (oy * pw + ox) * g.stride;
    }
  }
}

void stage_planes(std::size_t planes, std::size_t h, std::size_t w,
                  const float* src, std::ptrdiff_t origin, std::size_t step,
                  std::size_t ph, std::size_t pw, float* dst) {
  std::fill(dst, dst + planes * ph * pw, 0.0f);
  const Landing ys = landing_range(h, ph, origin, step);
  const Landing xs = landing_range(w, pw, origin, step);
  if (ys.lo >= ys.hi || xs.lo >= xs.hi) return;
  for (std::size_t c = 0; c < planes; ++c) {
    for (std::size_t y = ys.lo; y < ys.hi; ++y) {
      const float* __restrict__ in = src + (c * h + y) * w;
      float* __restrict__ out =
          dst + c * ph * pw +
          static_cast<std::size_t>(origin +
                                   static_cast<std::ptrdiff_t>(y * step)) *
              pw;
      const auto x0 = static_cast<std::size_t>(
          origin + static_cast<std::ptrdiff_t>(xs.lo * step));
      if (step == 1) {
        std::memcpy(out + x0, in + xs.lo, (xs.hi - xs.lo) * sizeof(float));
      } else {
        for (std::size_t x = xs.lo; x < xs.hi; ++x) {
          out[x0 + (x - xs.lo) * step] = in[x];
        }
      }
    }
  }
}

}  // namespace skiptrain::nn
