#include "nn/conv2d.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <vector>

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

namespace {

/// Per-thread scratch of the im2col path, shared by every Conv2d the
/// thread runs: each call rebuilds what it reads, so nothing carries over
/// between calls, and a fleet of model replicas costs one set per worker
/// thread rather than one per layer per node.
struct ConvScratch {
  std::vector<float> col;     // [patch x out_hw]: forward, and dX's
  std::vector<float> colr;    // [out_hw x patch]: dW
  std::vector<float> gout_t;  // [out_hw x out_c]: dW
  std::vector<float> wflip;   // [in_c x out_c*k*k]: dX
  std::vector<float> lifted;  // dilated, cropped gradient planes: dX
};

thread_local ConvScratch t_scratch;

/// Grow-only: layers of different shapes share the buffers, and a
/// shrink-then-grow resize would re-zero the tail.
float* grow(std::vector<float>& buf, std::size_t floats) {
  if (buf.size() < floats) buf.resize(floats);
  return buf.data();
}

/// The input gradient as a forward convolution over the output-gradient
/// planes: kernel flipped and its channel axes swapped, stride 1, output
/// h x w. Stride s becomes a gradient plane dilated by s (zeros between
/// entries); padding becomes k-1-pad, or a crop by pad-(k-1) when
/// pad >= k. Only stride 1 with pad < k reads the gradient in place.
struct TransposedConv {
  ConvGeometry geom;  // in_c = out_c, h x w = the lifted plane
  std::size_t crop = 0;
  bool lifted = false;
};

TransposedConv transposed_conv(const ConvGeometry& g, std::size_t out_c) {
  TransposedConv t;
  t.crop = g.pad >= g.k ? g.pad + 1 - g.k : 0;
  t.lifted = g.stride != 1 || t.crop != 0;
  t.geom.in_c = out_c;
  t.geom.k = g.k;
  t.geom.pad = g.k - 1 + t.crop - g.pad;
  t.geom.h = g.h + 2 * g.pad + 1 - g.k - 2 * t.crop;
  t.geom.w = g.w + 2 * g.pad + 1 - g.k - 2 * t.crop;
  t.geom.oh = g.h;
  t.geom.ow = g.w;
  return t;
}

/// wflip[ic][(oc, a, b)] = w[oc][ic][k-1-a][k-1-b]: the A operand of the
/// input-gradient GEMM.
void flip_kernel(std::size_t out_c, std::size_t in_c, std::size_t kk,
                 const float* __restrict__ w, float* __restrict__ wflip) {
  for (std::size_t oc = 0; oc < out_c; ++oc) {
    for (std::size_t ic = 0; ic < in_c; ++ic) {
      const float* __restrict__ src = w + (oc * in_c + ic) * kk;
      float* __restrict__ dst = wflip + (ic * out_c + oc) * kk;
      for (std::size_t t = 0; t < kk; ++t) dst[t] = src[kk - 1 - t];
    }
  }
}

/// Writes one image's gradient planes, dilated by the stride and cropped
/// by t.crop on every side, into `lifted` ([out_c x t.geom.h x t.geom.w]).
void lift_gradient(const ConvGeometry& g, const TransposedConv& t,
                   const float* __restrict__ gout_plane,
                   float* __restrict__ lifted) {
  const ConvGeometry& lg = t.geom;
  std::fill(lifted, lifted + lg.in_c * lg.h * lg.w, 0.0f);
  for (std::size_t oc = 0; oc < lg.in_c; ++oc) {
    const float* __restrict__ gp = gout_plane + oc * g.out_hw();
    float* __restrict__ dst = lifted + oc * lg.h * lg.w;
    for (std::size_t oy = 0; oy < g.oh; ++oy) {
      const std::size_t y = oy * g.stride;
      if (y < t.crop || y - t.crop >= lg.h) continue;
      for (std::size_t ox = 0; ox < g.ow; ++ox) {
        const std::size_t x = ox * g.stride;
        if (x < t.crop || x - t.crop >= lg.w) continue;
        dst[(y - t.crop) * lg.w + (x - t.crop)] = gp[oy * g.ow + ox];
      }
    }
  }
}

}  // namespace

void Conv2d::forward_im2col(const Tensor& input, Tensor& output) {
  const std::size_t batch = input.dim(0);
  const ConvGeometry g = geometry(input.dim(2), input.dim(3));
  const std::size_t patch = g.patch();
  const std::size_t ohw = g.out_hw();
  const std::size_t in_sz = in_c_ * g.h * g.w;
  const std::size_t out_sz = out_c_ * ohw;
  const bool pointwise = g.patches_are_image();
  float* col_buf = pointwise ? nullptr : grow(t_scratch.col, patch * ohw);

  const std::span<const float> weights{params_.data(), out_c_ * patch};
  const float* bias = params_.data() + out_c_ * patch;
  const auto in = input.data();
  const auto out = output.data();
  for (std::size_t b = 0; b < batch; ++b) {
    const float* image = in.data() + b * in_sz;
    const float* col = image;
    if (!pointwise) {
      im2col_kmajor(g, image, col_buf);
      col = col_buf;
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

void Conv2d::backward_im2col(const Tensor& input, const Tensor& grad_output,
                             Tensor& grad_input) {
  const std::size_t batch = input.dim(0);
  const ConvGeometry g = geometry(input.dim(2), input.dim(3));
  const std::size_t patch = g.patch();
  const std::size_t ohw = g.out_hw();
  const std::size_t in_sz = in_c_ * g.h * g.w;
  const std::size_t out_sz = out_c_ * ohw;

  std::span<float> grad_w{grads_.data(), out_c_ * patch};
  float* grad_b = grads_.data() + out_c_ * patch;

  float* colr = grow(t_scratch.colr, ohw * patch);
  float* gout_t = grow(t_scratch.gout_t, ohw * out_c_);

  // Input gradient: gin[b] = wflip [in_c x out_c*k*k] * the transposed
  // conv's patch matrix [out_c*k*k x h*w]. Its patch index (oc, a, b) is,
  // per input pixel, the direct loop's (oc, oy, ox) order, so the GEMM
  // adds the same terms in the same order; the padding, dilation and
  // g == 0 slots the direct loop skips add w * 0 (see conv2d.hpp).
  const bool need_input = !grad_input.empty();  // see Layer::backward
  const TransposedConv tc = transposed_conv(g, out_c_);
  const std::size_t tpatch = tc.geom.patch();
  float* wflip = nullptr;
  float* lifted = nullptr;
  float* col_buf = nullptr;
  if (need_input) {
    wflip = grow(t_scratch.wflip, in_c_ * tpatch);
    flip_kernel(out_c_, in_c_, k_ * k_, params_.data(), wflip);
    if (tc.lifted) {
      lifted = grow(t_scratch.lifted, out_c_ * tc.geom.h * tc.geom.w);
    }
    if (!tc.geom.patches_are_image()) {
      col_buf = grow(t_scratch.col, tpatch * tc.geom.out_hw());
    }
  }

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
    transpose(out_c_, ohw, gout_plane, gout_t);
    im2row_posmajor(g, image, colr);
    tensor::gemm_tn(out_c_, ohw, patch,
                    std::span<const float>{gout_t, ohw * out_c_},
                    std::span<const float>{colr, ohw * patch}, grad_w,
                    /*beta=*/1.0f);

    if (need_input) {
      const float* plane = gout_plane;
      if (tc.lifted) {
        lift_gradient(g, tc, gout_plane, lifted);
        plane = lifted;
      }
      const float* col = plane;
      if (col_buf != nullptr) {
        im2col_kmajor(tc.geom, plane, col_buf);
        col = col_buf;
      }
      tensor::gemm_nn(in_c_, tpatch, tc.geom.out_hw(),
                      std::span<const float>{wflip, in_c_ * tpatch},
                      std::span<const float>{col, tpatch * tc.geom.out_hw()},
                      std::span<float>{grad_input.raw() + b * in_sz, in_sz},
                      /*beta=*/0.0f);
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
