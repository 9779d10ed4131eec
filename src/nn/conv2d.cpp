#include "nn/conv2d.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "obs/registry.hpp"
#include "tensor/ops.hpp"

namespace skiptrain::nn {

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel_size, std::size_t stride,
               std::size_t padding)
    : ParamLayer(out_channels * in_channels * kernel_size * kernel_size +
                 out_channels),
      in_c_(in_channels),
      out_c_(out_channels),
      k_(kernel_size),
      stride_(stride),
      pad_(padding) {
  if (stride_ == 0) throw std::invalid_argument("Conv2d: stride must be > 0");
}

std::string Conv2d::name() const {
  return "Conv2d(" + std::to_string(in_c_) + "->" + std::to_string(out_c_) +
         ", k=" + std::to_string(k_) + ", s=" + std::to_string(stride_) +
         ", p=" + std::to_string(pad_) + ")";
}

std::size_t Conv2d::spatial_out(std::size_t in) const {
  const std::size_t padded = in + 2 * pad_;
  if (padded < k_) {
    throw std::invalid_argument("Conv2d: input smaller than kernel");
  }
  return (padded - k_) / stride_ + 1;
}

ConvGeometry Conv2d::geometry(std::size_t h, std::size_t w) const {
  ConvGeometry g;
  g.in_c = in_c_;
  g.h = h;
  g.w = w;
  g.k = k_;
  g.stride = stride_;
  g.pad = pad_;
  g.oh = spatial_out(h);
  g.ow = spatial_out(w);
  return g;
}

Shape Conv2d::output_shape(const Shape& input_shape) const {
  if (input_shape.size() != 4 || input_shape[1] != in_c_) {
    throw std::invalid_argument("Conv2d: expected input [B, " +
                                std::to_string(in_c_) + ", H, W], got " +
                                tensor::shape_to_string(input_shape));
  }
  return {input_shape[0], out_c_, spatial_out(input_shape[2]),
          spatial_out(input_shape[3])};
}

void Conv2d::forward(const Tensor& input, Tensor& output) {
  static const obs::Counter calls = obs::counter("conv.fwd_calls");
  calls.add(1);
  if (algo_ == Conv2dAlgo::kDirect) {
    forward_direct(input, output);
  } else {
    forward_im2col(input, output);
  }
}

void Conv2d::backward(const Tensor& input, const Tensor& grad_output,
                      Tensor& grad_input) {
  static const obs::Counter calls = obs::counter("conv.bwd_calls");
  calls.add(1);
  if (algo_ == Conv2dAlgo::kDirect) {
    backward_direct(input, grad_output, grad_input);
  } else {
    backward_im2col(input, grad_output, grad_input);
  }
}

// ---------------------------------------------------------------------------
// im2col + GEMM path
// ---------------------------------------------------------------------------

void Conv2d::forward_im2col(const Tensor& input, Tensor& output) {
  const std::size_t batch = input.dim(0);
  const ConvGeometry g = geometry(input.dim(2), input.dim(3));
  const std::size_t patch = g.patch();
  const std::size_t ohw = g.out_hw();
  const std::size_t in_sz = in_c_ * g.h * g.w;
  const std::size_t out_sz = out_c_ * ohw;
  // A 1x1/stride-1/no-pad conv's patch matrix IS the input plane.
  const bool pointwise = k_ == 1 && stride_ == 1 && pad_ == 0;
  if (!pointwise) col_.resize(patch * ohw);

  const std::span<const float> weights{params_.data(), out_c_ * patch};
  const float* bias = params_.data() + out_c_ * patch;
  const auto in = input.data();
  const auto out = output.data();
  for (std::size_t b = 0; b < batch; ++b) {
    const float* image = in.data() + b * in_sz;
    const float* col = image;
    if (!pointwise) {
      im2col_kmajor(g, image, col_.data());
      col = col_.data();
    }
    float* out_plane = out.data() + b * out_sz;
    // acc starts at the bias (the direct loop's first term), then the
    // GEMM accumulates the patch dimension in (ic, ky, kx) order.
    for (std::size_t oc = 0; oc < out_c_; ++oc) {
      std::fill(out_plane + oc * ohw, out_plane + (oc + 1) * ohw, bias[oc]);
    }
    tensor::gemm_nn(out_c_, patch, ohw, weights,
                    std::span<const float>{col, patch * ohw},
                    std::span<float>{out_plane, out_sz}, /*beta=*/1.0f);
  }
}

namespace {

/// Input-gradient kernel: the direct loop nest with the bounds hoisted
/// into clipped (ky, kx) ranges — the same surviving iterations in the
/// same order, so it is bitwise identical to the seed loop by
/// construction.
void backward_input_image(const ConvGeometry& g, std::size_t out_c,
                          const float* __restrict__ gout_plane,
                          const float* __restrict__ weights,
                          float* __restrict__ gin_image) {
  const std::size_t kk = g.k * g.k;
  const std::size_t patch = g.in_c * kk;
  for (std::size_t oc = 0; oc < out_c; ++oc) {
    const float* __restrict__ gp = gout_plane + oc * g.out_hw();
    const float* __restrict__ wk = weights + oc * patch;
    for (std::size_t oy = 0; oy < g.oh; ++oy) {
      const std::ptrdiff_t iy0 = static_cast<std::ptrdiff_t>(oy * g.stride) -
                                 static_cast<std::ptrdiff_t>(g.pad);
      const KernelRange yr = clipped_kernel_range(g.k, g.h, iy0);
      const std::size_t ky_lo = yr.lo;
      const std::size_t ky_hi = yr.hi;
      if (ky_lo >= ky_hi) continue;
      for (std::size_t ox = 0; ox < g.ow; ++ox) {
        const float gval = gp[oy * g.ow + ox];
        if (gval == 0.0f) continue;
        const std::ptrdiff_t ix0 = static_cast<std::ptrdiff_t>(ox * g.stride) -
                                   static_cast<std::ptrdiff_t>(g.pad);
        const KernelRange xr = clipped_kernel_range(g.k, g.w, ix0);
        const std::size_t kx_lo = xr.lo;
        const std::size_t kx_hi = xr.hi;
        if (kx_lo >= kx_hi) continue;
        for (std::size_t ic = 0; ic < g.in_c; ++ic) {
          float* __restrict__ gin_plane = gin_image + ic * g.h * g.w;
          const float* __restrict__ w_ic = wk + ic * kk;
          for (std::size_t ky = ky_lo; ky < ky_hi; ++ky) {
            const float* __restrict__ wrow = w_ic + ky * g.k;
            float* __restrict__ grow =
                gin_plane +
                static_cast<std::size_t>(iy0 + static_cast<std::ptrdiff_t>(ky)) *
                    g.w +
                static_cast<std::size_t>(ix0 +
                                         static_cast<std::ptrdiff_t>(kx_lo));
            const float* __restrict__ wseg = wrow + kx_lo;
            const std::size_t span = kx_hi - kx_lo;
            for (std::size_t t = 0; t < span; ++t) grow[t] += gval * wseg[t];
          }
        }
      }
    }
  }
}

}  // namespace

void Conv2d::backward_im2col(const Tensor& input, const Tensor& grad_output,
                             Tensor& grad_input) {
  const std::size_t batch = input.dim(0);
  const ConvGeometry g = geometry(input.dim(2), input.dim(3));
  const std::size_t patch = g.patch();
  const std::size_t ohw = g.out_hw();
  const std::size_t in_sz = in_c_ * g.h * g.w;
  const std::size_t out_sz = out_c_ * ohw;

  const std::span<const float> weights{params_.data(), out_c_ * patch};
  std::span<float> grad_w{grads_.data(), out_c_ * patch};
  float* grad_b = grads_.data() + out_c_ * patch;

  const bool need_input = !grad_input.empty();  // see Layer::backward
  if (need_input) grad_input.zero();
  colr_.resize(ohw * patch);
  gout_t_.resize(ohw * out_c_);

  const auto in = input.data();
  const auto gout = grad_output.data();

  for (std::size_t b = 0; b < batch; ++b) {
    const float* image = in.data() + b * in_sz;
    const float* gout_plane = gout.data() + b * out_sz;

    // Bias gradient: the direct loop's (oc, oy, ox) order and g == 0 skip.
    for (std::size_t oc = 0; oc < out_c_; ++oc) {
      const float* __restrict__ gp = gout_plane + oc * ohw;
      float acc_ref = grad_b[oc];
      for (std::size_t pos = 0; pos < ohw; ++pos) {
        const float gval = gp[pos];
        if (gval == 0.0f) continue;
        acc_ref += gval;
      }
      grad_b[oc] = acc_ref;
    }

    // Weight gradient: dW[oc][κ] += Σ_pos g[oc][pos] * colr[pos][κ].
    // gemm_tn accumulates the shared (position) dimension outermost and
    // ascending, and its skip-zero branch is exactly the direct loop's
    // g == 0 skip.
    transpose(out_c_, ohw, gout_plane, gout_t_.data());
    im2row_posmajor(g, image, colr_.data());
    tensor::gemm_tn(out_c_, ohw, patch,
                    std::span<const float>{gout_t_.data(), ohw * out_c_},
                    std::span<const float>{colr_.data(), ohw * patch}, grad_w,
                    /*beta=*/1.0f);

    if (need_input) {
      backward_input_image(g, out_c_, gout_plane, weights.data(),
                           grad_input.raw() + b * in_sz);
    }
  }
}

// ---------------------------------------------------------------------------
// Direct (seed) path — the verification reference.
// ---------------------------------------------------------------------------

void Conv2d::forward_direct(const Tensor& input, Tensor& output) {
  const std::size_t batch = input.dim(0);
  const std::size_t h = input.dim(2);
  const std::size_t w = input.dim(3);
  const std::size_t oh = spatial_out(h);
  const std::size_t ow = spatial_out(w);
  const float* weights = params_.data();
  const float* bias = params_.data() + out_c_ * in_c_ * k_ * k_;

  const auto in = input.data();
  const auto out = output.data();
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t oc = 0; oc < out_c_; ++oc) {
      float* out_plane = out.data() + ((b * out_c_ + oc) * oh) * ow;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          float acc = bias[oc];
          for (std::size_t ic = 0; ic < in_c_; ++ic) {
            const float* in_plane = in.data() + ((b * in_c_ + ic) * h) * w;
            const float* kernel =
                weights + ((oc * in_c_ + ic) * k_) * k_;
            for (std::size_t ky = 0; ky < k_; ++ky) {
              // Input coordinates with padding offset; skip out-of-bounds
              // (zero padding contributes nothing).
              const std::ptrdiff_t iy =
                  static_cast<std::ptrdiff_t>(oy * stride_ + ky) -
                  static_cast<std::ptrdiff_t>(pad_);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
              for (std::size_t kx = 0; kx < k_; ++kx) {
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(ox * stride_ + kx) -
                    static_cast<std::ptrdiff_t>(pad_);
                if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
                acc += kernel[ky * k_ + kx] *
                       in_plane[static_cast<std::size_t>(iy) * w +
                                static_cast<std::size_t>(ix)];
              }
            }
          }
          out_plane[oy * ow + ox] = acc;
        }
      }
    }
  }
}

void Conv2d::backward_direct(const Tensor& input, const Tensor& grad_output,
                             Tensor& grad_input) {
  const std::size_t batch = input.dim(0);
  const std::size_t h = input.dim(2);
  const std::size_t w = input.dim(3);
  const std::size_t oh = spatial_out(h);
  const std::size_t ow = spatial_out(w);
  const float* weights = params_.data();
  float* grad_w = grads_.data();
  float* grad_b = grads_.data() + out_c_ * in_c_ * k_ * k_;

  const bool need_input = !grad_input.empty();  // see Layer::backward
  if (need_input) grad_input.zero();
  const auto in = input.data();
  const auto gout = grad_output.data();

  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t oc = 0; oc < out_c_; ++oc) {
      const float* gout_plane = gout.data() + ((b * out_c_ + oc) * oh) * ow;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          const float g = gout_plane[oy * ow + ox];
          if (g == 0.0f) continue;
          grad_b[oc] += g;
          for (std::size_t ic = 0; ic < in_c_; ++ic) {
            const float* in_plane = in.data() + ((b * in_c_ + ic) * h) * w;
            float* gin_plane =
                need_input ? grad_input.raw() + ((b * in_c_ + ic) * h) * w
                           : nullptr;
            const float* kernel = weights + ((oc * in_c_ + ic) * k_) * k_;
            float* gkernel = grad_w + ((oc * in_c_ + ic) * k_) * k_;
            for (std::size_t ky = 0; ky < k_; ++ky) {
              const std::ptrdiff_t iy =
                  static_cast<std::ptrdiff_t>(oy * stride_ + ky) -
                  static_cast<std::ptrdiff_t>(pad_);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
              for (std::size_t kx = 0; kx < k_; ++kx) {
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(ox * stride_ + kx) -
                    static_cast<std::ptrdiff_t>(pad_);
                if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
                const std::size_t idx = static_cast<std::size_t>(iy) * w +
                                        static_cast<std::size_t>(ix);
                gkernel[ky * k_ + kx] += g * in_plane[idx];
                if (need_input) gin_plane[idx] += g * kernel[ky * k_ + kx];
              }
            }
          }
        }
      }
    }
  }
}

std::unique_ptr<Layer> Conv2d::clone() const {
  auto copy = std::make_unique<Conv2d>(in_c_, out_c_, k_, stride_, pad_);
  copy->params_ = params_;
  copy->algo_ = algo_;
  return copy;
}

}  // namespace skiptrain::nn
