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
  if (in_c_ == 0 || out_c_ == 0 || k_ == 0) {
    throw std::invalid_argument("Conv2d: channels and kernel must be > 0");
  }
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
// Implicit im2col + GEMM path
// ---------------------------------------------------------------------------

namespace {

/// Per-thread scratch of the lowered path, shared by every Conv2d the
/// thread runs: each call rebuilds what it reads, so nothing carries over
/// between calls, and a fleet of model replicas costs one set per worker
/// thread rather than one per layer per node.
struct ConvScratch {
  std::vector<float> image;     // one zero-padded input image
  std::vector<float> gradient;  // one image's staged gradient planes: dX
  std::vector<float> wflip;     // [in_c x out_c*k*k]: dX
  std::vector<std::size_t> kappa_off, pos_off;      // forward and dW
  std::vector<std::size_t> t_kappa_off, t_pos_off;  // dX
};

thread_local ConvScratch t_scratch;

/// Grow-only: layers of different shapes share the buffers.
template <typename T>
T* grow(std::vector<T>& buf, std::size_t count) {
  if (buf.size() < count) buf.resize(count);
  return buf.data();
}

/// g's patch matrix as a GEMM B operand over `src`, its staged image:
/// κ-major ([patch x out_hw], forward and dX) or position-major
/// ([out_hw x patch], dW).
struct PatchTables {
  const std::size_t* kappa;
  const std::size_t* pos;

  [[nodiscard]] tensor::IndexedB kappa_major(const float* src) const {
    return {src, kappa, pos};
  }
  [[nodiscard]] tensor::IndexedB pos_major(const float* src) const {
    return {src, pos, kappa};
  }
};

PatchTables patch_tables(const ConvGeometry& g, std::vector<std::size_t>& kappa,
                         std::vector<std::size_t>& pos) {
  std::size_t* k = grow(kappa, g.patch());
  std::size_t* p = grow(pos, g.out_hw());
  patch_offsets(g, k, p);
  return {k, p};
}

/// The image g's patches read: in place when unpadded, else a zero-padded
/// copy in the scratch.
const float* stage_image(const ConvGeometry& g, const float* image) {
  if (g.pad == 0) return image;
  float* dst = grow(t_scratch.image, g.in_c * g.padded_h() * g.padded_w());
  stage_planes(g.in_c, g.h, g.w, image, static_cast<std::ptrdiff_t>(g.pad),
               1, g.padded_h(), g.padded_w(), dst);
  return dst;
}

/// The input gradient as a forward convolution over the output-gradient
/// planes: kernel flipped and its channel axes swapped, stride 1, no
/// padding, output h x w, over (h+k-1) x (w+k-1) planes that hold the
/// gradient dilated by the stride at offset k-1-pad (a negative offset,
/// pad >= k, crops).
ConvGeometry transposed_geometry(const ConvGeometry& g, std::size_t out_c) {
  ConvGeometry t;
  t.in_c = out_c;
  t.h = g.h + g.k - 1;
  t.w = g.w + g.k - 1;
  t.k = g.k;
  t.oh = g.h;
  t.ow = g.w;
  return t;
}

/// One image's gradient planes staged for the transposed conv t: in place
/// when they already are its input (stride 1, pad k-1).
const float* stage_gradient(const ConvGeometry& g, const ConvGeometry& t,
                            const float* gout_plane) {
  const std::ptrdiff_t origin = static_cast<std::ptrdiff_t>(g.k) - 1 -
                                static_cast<std::ptrdiff_t>(g.pad);
  if (g.stride == 1 && origin == 0) return gout_plane;
  float* dst = grow(t_scratch.gradient, t.in_c * t.h * t.w);
  stage_planes(t.in_c, g.oh, g.ow, gout_plane, origin, g.stride, t.h, t.w,
               dst);
  return dst;
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

}  // namespace

void Conv2d::forward_im2col(const Tensor& input, Tensor& output) {
  const std::size_t batch = input.dim(0);
  const ConvGeometry g = geometry(input.dim(2), input.dim(3));
  const std::size_t patch = g.patch();
  const std::size_t ohw = g.out_hw();
  const std::size_t in_sz = in_c_ * g.h * g.w;
  const std::size_t out_sz = out_c_ * ohw;
  const PatchTables tables =
      patch_tables(g, t_scratch.kappa_off, t_scratch.pos_off);

  const std::span<const float> weights{params_.data(), out_c_ * patch};
  const float* bias = params_.data() + out_c_ * patch;
  const auto in = input.data();
  const auto out = output.data();
  for (std::size_t b = 0; b < batch; ++b) {
    const float* image = stage_image(g, in.data() + b * in_sz);
    float* out_plane = out.data() + b * out_sz;
    // acc starts at the bias (the direct loop's first term), then the
    // GEMM accumulates the patch dimension in (ic, ky, kx) order.
    for (std::size_t oc = 0; oc < out_c_; ++oc) {
      std::fill(out_plane + oc * ohw, out_plane + (oc + 1) * ohw, bias[oc]);
    }
    tensor::gemm_nn_indexed(out_c_, patch, ohw, weights,
                            tables.kappa_major(image),
                            std::span<float>{out_plane, out_sz},
                            /*beta=*/1.0f);
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
  const PatchTables tables =
      patch_tables(g, t_scratch.kappa_off, t_scratch.pos_off);

  // Input gradient: gin[b] = wflip [in_c x out_c*k*k] * the transposed
  // conv's patch matrix [out_c*k*k x h*w]. Its patch index (oc, a, b) is,
  // per input pixel, the direct loop's (oc, oy, ox) order, so the GEMM
  // adds the same terms in the same order; the padding, dilation and
  // g == 0 slots the direct loop skips add w * 0 (see conv2d.hpp).
  const bool need_input = !grad_input.empty();  // see Layer::backward
  const ConvGeometry tg = transposed_geometry(g, out_c_);
  const std::size_t tpatch = tg.patch();
  float* wflip = nullptr;
  PatchTables t_tables{};
  if (need_input) {
    wflip = grow(t_scratch.wflip, in_c_ * tpatch);
    flip_kernel(out_c_, in_c_, k_ * k_, params_.data(), wflip);
    t_tables = patch_tables(tg, t_scratch.t_kappa_off, t_scratch.t_pos_off);
  }

  const auto in = input.data();
  const auto gout = grad_output.data();

  for (std::size_t b = 0; b < batch; ++b) {
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

    // Weight gradient: dW[oc][κ] += Σ_pos g[oc][pos] * col[κ][pos], with
    // the patch matrix read position-major. Each element accumulates the
    // shared (position) dimension ascending, and the kernel's skip-zero
    // branch is exactly the direct loop's g == 0 skip.
    const float* image = stage_image(g, in.data() + b * in_sz);
    tensor::gemm_nn_indexed(out_c_, ohw, patch,
                            std::span<const float>{gout_plane, out_sz},
                            tables.pos_major(image), grad_w, /*beta=*/1.0f);

    if (need_input) {
      const float* planes = stage_gradient(g, tg, gout_plane);
      tensor::gemm_nn_indexed(
          in_c_, tpatch, tg.out_hw(),
          std::span<const float>{wflip, in_c_ * tpatch},
          t_tables.kappa_major(planes),
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
