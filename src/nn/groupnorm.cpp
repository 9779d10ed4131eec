#include "nn/groupnorm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/isa.hpp"

namespace skiptrain::nn {

namespace {

// The (sample, group) pairs are independent reductions, so the kernels run
// kLanes of them at once, one per vector lane: pair q = b * groups + g
// holds its chans_per_group * spatial values contiguously at q * that.
// Each lane walks its values in the scalar order, with the scalar
// expression per step, so every lane's double sums carry the bits a
// one-pair loop would. Lanes come in quads of four (one Vec4 of floats,
// one Vec4d of doubles); two quads give each sum two independent add
// chains. A block past the last pair repeats the last pair's values in
// its dead lanes and discards their results.
using util::Mask4;
using util::Vec4;
using util::Vec4Unaligned;
using Vec4d = double __attribute__((vector_size(4 * sizeof(double))));
constexpr std::size_t kQuad = 4;
constexpr std::size_t kQuads = 2;
constexpr std::size_t kLanes = kQuad * kQuads;

struct PairShape {
  std::size_t pairs;  // batch * groups
  std::size_t groups;
  std::size_t chans_per_group;
  std::size_t spatial;  // H * W
  std::size_t group_size() const { return chans_per_group * spatial; }
};

PairShape pair_shape(const Tensor& input, std::size_t groups) {
  return PairShape{input.dim(0) * groups, groups, input.dim(1) / groups,
                   input.dim(2) * input.dim(3)};
}

/// Per lane, widened to double (one vcvtps2pd; __builtin_convertvector
/// splits it in GCC 12).
[[gnu::always_inline]] inline void widen(const Vec4& x, Vec4d& out) {
  out = Vec4d{x[0], x[1], x[2], x[3]};
}

/// Quad u of per-lane values.
[[gnu::always_inline]] inline const Vec4Unaligned& quad(const float* lanes,
                                                        std::size_t u) {
  return *reinterpret_cast<const Vec4Unaligned*>(lanes + u * kQuad);
}

/// In-place 4 x 4 transpose: v[j][l] becomes the old v[l][j].
[[gnu::always_inline]] inline void transpose4(Vec4 (&v)[kQuad]) {
  const Vec4 t0 = __builtin_shuffle(v[0], v[1], Mask4{0, 4, 1, 5});
  const Vec4 t1 = __builtin_shuffle(v[0], v[1], Mask4{2, 6, 3, 7});
  const Vec4 t2 = __builtin_shuffle(v[2], v[3], Mask4{0, 4, 1, 5});
  const Vec4 t3 = __builtin_shuffle(v[2], v[3], Mask4{2, 6, 3, 7});
  v[0] = __builtin_shuffle(t0, t2, Mask4{0, 1, 4, 5});
  v[1] = __builtin_shuffle(t0, t2, Mask4{2, 3, 6, 7});
  v[2] = __builtin_shuffle(t1, t3, Mask4{0, 1, 4, 5});
  v[3] = __builtin_shuffle(t1, t3, Mask4{2, 3, 6, 7});
}

/// Calls step(col) for i = 0 .. count - 1 in order, where quad u of
/// col[s] holds src[s][4u .. 4u + 3][i]: N sets of kLanes streams, read
/// four steps at a time and transposed into lanes.
template <std::size_t N, typename Step>
[[gnu::always_inline]] inline
void for_each_step(const float* const (&src)[N][kLanes], std::size_t count,
                   Step&& step) {
  std::size_t i = 0;
  for (; i + kQuad <= count; i += kQuad) {
    Vec4 v[N][kQuads][kQuad];
    for (std::size_t s = 0; s < N; ++s) {
      for (std::size_t u = 0; u < kQuads; ++u) {
        for (std::size_t l = 0; l < kQuad; ++l) {
          v[s][u][l] = *reinterpret_cast<const Vec4Unaligned*>(
              src[s][u * kQuad + l] + i);
        }
        transpose4(v[s][u]);
      }
    }
    for (std::size_t j = 0; j < kQuad; ++j) {
      Vec4 col[N][kQuads];
      for (std::size_t s = 0; s < N; ++s) {
        for (std::size_t u = 0; u < kQuads; ++u) col[s][u] = v[s][u][j];
      }
      step(col);
    }
  }
  for (; i < count; ++i) {
    Vec4 col[N][kQuads];
    for (std::size_t s = 0; s < N; ++s) {
      for (std::size_t u = 0; u < kQuads; ++u) {
        const float* const* lane = src[s] + u * kQuad;
        col[s][u] = Vec4{lane[0][i], lane[1][i], lane[2][i], lane[3][i]};
      }
    }
    step(col);
  }
}

/// One block of kLanes pairs from q0 on (dead lanes clamped to the last
/// pair) and its per-lane mean and 1/sqrt(var + eps), from double sums.
/// Forward and backward both build it, so backward sees the forward's
/// exact statistics.
struct PairBlock {
  std::size_t q[kLanes];
  std::size_t live;
  float mean[kLanes];
  float inv_std[kLanes];

  [[gnu::always_inline]] inline
  PairBlock(const PairShape& s, const float* in, std::size_t q0, float eps)
      : live(std::min(kLanes, s.pairs - q0)) {
    const float* values[1][kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) {
      q[l] = std::min(q0 + l, s.pairs - 1);
      values[0][l] = in + q[l] * s.group_size();
    }
    Vec4d sum[kQuads] = {}, sum_sq[kQuads] = {};
    for_each_step<1>(
        values, s.group_size(),
        [&](const Vec4 (&col)[1][kQuads]) __attribute__((always_inline)) {
          for (std::size_t u = 0; u < kQuads; ++u) {
            Vec4d v;
            widen(col[0][u], v);
            sum[u] = sum[u] + v;
            sum_sq[u] = sum_sq[u] + v * v;
          }
        });
    const double n = static_cast<double>(s.group_size());
    for (std::size_t l = 0; l < kLanes; ++l) {
      const double mu = sum[l / kQuad][l % kQuad] / n;
      const double var =
          std::max(0.0, sum_sq[l / kQuad][l % kQuad] / n - mu * mu);
      mean[l] = static_cast<float>(mu);
      inv_std[l] = 1.0f / std::sqrt(static_cast<float>(var) + eps);
    }
  }
};

SKIPTRAIN_GEMM_CLONES
void group_norm_forward(const PairShape& s, const float* in,
                        const float* gamma, const float* beta, float eps,
                        float* out) {
  for (std::size_t q0 = 0; q0 < s.pairs; q0 += kLanes) {
    const PairBlock block(s, in, q0, eps);
    for (std::size_t l = 0; l < block.live; ++l) {
      const float mean = block.mean[l];
      const float inv_std = block.inv_std[l];
      const std::size_t g = block.q[l] % s.groups;
      for (std::size_t cg = 0; cg < s.chans_per_group; ++cg) {
        const std::size_t c = g * s.chans_per_group + cg;
        const float scale = gamma[c] * inv_std;
        const float shift = beta[c] - gamma[c] * mean * inv_std;
        const std::size_t plane =
            (block.q[l] * s.chans_per_group + cg) * s.spatial;
        for (std::size_t i = 0; i < s.spatial; ++i) {
          out[plane + i] = scale * in[plane + i] + shift;
        }
      }
    }
  }
}

/// Adds each pair's affine-parameter gradients into grad_gamma / grad_beta
/// (for any one channel, in pair order, so in sample order) and, unless
/// grad_in is null, writes the input gradient.
SKIPTRAIN_GEMM_CLONES
void group_norm_backward(const PairShape& s, const float* in,
                         const float* gout, const float* gamma, float eps,
                         float* grad_gamma, float* grad_beta, float* grad_in) {
  const double n = static_cast<double>(s.group_size());
  for (std::size_t q0 = 0; q0 < s.pairs; q0 += kLanes) {
    const PairBlock block(s, in, q0, eps);

    // First pass: the affine-parameter grads and the two group-level
    // reductions of the normalisation backward formula.
    Vec4d sum_dxhat[kQuads] = {}, sum_dxhat_xhat[kQuads] = {};
    for (std::size_t cg = 0; cg < s.chans_per_group; ++cg) {
      std::size_t c[kLanes];
      float gam[kLanes];
      const float* planes[2][kLanes];
      for (std::size_t l = 0; l < kLanes; ++l) {
        c[l] = block.q[l] % s.groups * s.chans_per_group + cg;
        gam[l] = gamma[c[l]];
        const std::size_t plane =
            (block.q[l] * s.chans_per_group + cg) * s.spatial;
        planes[0][l] = in + plane;
        planes[1][l] = gout + plane;
      }
      Vec4d dgamma[kQuads] = {}, dbeta[kQuads] = {};
      for_each_step<2>(
          planes, s.spatial,
          [&](const Vec4 (&col)[2][kQuads]) __attribute__((always_inline)) {
            for (std::size_t u = 0; u < kQuads; ++u) {
              const Vec4 xhat =
                  (col[0][u] - quad(block.mean, u)) * quad(block.inv_std, u);
              const Vec4 dxhat = col[1][u] * quad(gam, u);
              Vec4d xhat_d, dy_d, dxhat_d;
              widen(xhat, xhat_d);
              widen(col[1][u], dy_d);
              widen(dxhat, dxhat_d);
              sum_dxhat[u] = sum_dxhat[u] + dxhat_d;
              sum_dxhat_xhat[u] = sum_dxhat_xhat[u] + dxhat_d * xhat_d;
              dgamma[u] = dgamma[u] + dy_d * xhat_d;
              dbeta[u] = dbeta[u] + dy_d;
            }
          });
      for (std::size_t l = 0; l < block.live; ++l) {
        grad_gamma[c[l]] += static_cast<float>(dgamma[l / kQuad][l % kQuad]);
        grad_beta[c[l]] += static_cast<float>(dbeta[l / kQuad][l % kQuad]);
      }
    }
    if (grad_in == nullptr) continue;

    // Second pass: dx = inv_std * (dxhat - mean(dxhat) - xhat*mean(dxhat*xhat)).
    for (std::size_t l = 0; l < block.live; ++l) {
      const float mu = block.mean[l];
      const float inv_std = block.inv_std[l];
      const float mean_dxhat =
          static_cast<float>(sum_dxhat[l / kQuad][l % kQuad] / n);
      const float mean_dxhat_xhat =
          static_cast<float>(sum_dxhat_xhat[l / kQuad][l % kQuad] / n);
      const std::size_t g = block.q[l] % s.groups;
      for (std::size_t cg = 0; cg < s.chans_per_group; ++cg) {
        const float gc = gamma[g * s.chans_per_group + cg];
        const std::size_t plane =
            (block.q[l] * s.chans_per_group + cg) * s.spatial;
        for (std::size_t i = 0; i < s.spatial; ++i) {
          const float xhat = (in[plane + i] - mu) * inv_std;
          const float dxhat = gout[plane + i] * gc;
          grad_in[plane + i] =
              inv_std * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat);
        }
      }
    }
  }
}

}  // namespace


GroupNorm::GroupNorm(std::size_t num_groups, std::size_t channels, float eps)
    : ParamLayer(2 * channels),
      groups_(num_groups),
      channels_(channels),
      eps_(eps) {
  if (num_groups == 0 || channels % num_groups != 0) {
    throw std::invalid_argument(
        "GroupNorm: channels must be divisible by num_groups");
  }
  // gamma = 1, beta = 0 (identity transform at init).
  for (std::size_t c = 0; c < channels_; ++c) params_[c] = 1.0f;
}

std::string GroupNorm::name() const {
  return "GroupNorm(groups=" + std::to_string(groups_) +
         ", channels=" + std::to_string(channels_) + ")";
}

Shape GroupNorm::output_shape(const Shape& input_shape) const {
  if (input_shape.size() != 4 || input_shape[1] != channels_) {
    throw std::invalid_argument("GroupNorm: expected [B, " +
                                std::to_string(channels_) + ", H, W], got " +
                                tensor::shape_to_string(input_shape));
  }
  return input_shape;
}

void GroupNorm::forward(const Tensor& input, Tensor& output) {
  group_norm_forward(pair_shape(input, groups_), input.raw(), params_.data(),
                     params_.data() + channels_, eps_, output.raw());
}

void GroupNorm::backward(const Tensor& input, const Tensor& grad_output,
                         Tensor& grad_input) {
  // An empty grad_input means the input gradient is not needed (see
  // Layer::backward).
  group_norm_backward(pair_shape(input, groups_), input.raw(), grad_output.raw(),
                      params_.data(), eps_, grads_.data(),
                      grads_.data() + channels_,
                      grad_input.empty() ? nullptr : grad_input.raw());
}

std::unique_ptr<Layer> GroupNorm::clone() const {
  auto copy = std::make_unique<GroupNorm>(groups_, channels_, eps_);
  copy->params_ = params_;
  return copy;
}

}  // namespace skiptrain::nn
