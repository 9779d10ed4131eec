#include "nn/groupnorm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace skiptrain::nn {

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

GroupNorm::Stats GroupNorm::group_stats(const float* values,
                                        std::size_t count) const {
  double sum = 0.0, sum_sq = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const double v = values[i];
    sum += v;
    sum_sq += v * v;
  }
  const double n = static_cast<double>(count);
  const double mu = sum / n;
  const double var = std::max(0.0, sum_sq / n - mu * mu);
  return Stats{static_cast<float>(mu),
               1.0f / std::sqrt(static_cast<float>(var) + eps_)};
}

void GroupNorm::forward(const Tensor& input, Tensor& output) {
  const std::size_t batch = input.dim(0);
  const std::size_t h = input.dim(2);
  const std::size_t w = input.dim(3);
  const std::size_t spatial = h * w;
  const std::size_t chans_per_group = channels_ / groups_;
  const std::size_t group_size = chans_per_group * spatial;

  const float* gamma = params_.data();
  const float* beta = params_.data() + channels_;
  const auto in = input.data();
  const auto out = output.data();

  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t g = 0; g < groups_; ++g) {
      const std::size_t base = (b * channels_ + g * chans_per_group) * spatial;
      const Stats stats = group_stats(in.data() + base, group_size);

      for (std::size_t cg = 0; cg < chans_per_group; ++cg) {
        const std::size_t c = g * chans_per_group + cg;
        const float scale = gamma[c] * stats.inv_std;
        const float shift = beta[c] - gamma[c] * stats.mean * stats.inv_std;
        const std::size_t plane = (b * channels_ + c) * spatial;
        for (std::size_t i = 0; i < spatial; ++i) {
          out[plane + i] = scale * in[plane + i] + shift;
        }
      }
    }
  }
}

void GroupNorm::backward(const Tensor& input, const Tensor& grad_output,
                         Tensor& grad_input) {
  const std::size_t batch = input.dim(0);
  const std::size_t h = input.dim(2);
  const std::size_t w = input.dim(3);
  const std::size_t spatial = h * w;
  const std::size_t chans_per_group = channels_ / groups_;
  const std::size_t group_size = chans_per_group * spatial;

  const float* gamma = params_.data();
  float* grad_gamma = grads_.data();
  float* grad_beta = grads_.data() + channels_;
  const auto in = input.data();
  const auto gout = grad_output.data();
  const auto gin = grad_input.data();
  const bool need_input = !grad_input.empty();  // see Layer::backward

  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t g = 0; g < groups_; ++g) {
      const Stats stats = group_stats(
          in.data() + (b * channels_ + g * chans_per_group) * spatial,
          group_size);
      const float mu = stats.mean;
      const float inv_std = stats.inv_std;
      const double n = static_cast<double>(group_size);

      // First pass: the affine-parameter grads plus, when the input
      // gradient is needed, the two group-level reductions of the
      // normalisation backward formula.
      double sum_dxhat = 0.0;
      double sum_dxhat_xhat = 0.0;
      for (std::size_t cg = 0; cg < chans_per_group; ++cg) {
        const std::size_t c = g * chans_per_group + cg;
        const std::size_t plane = (b * channels_ + c) * spatial;
        double dgamma = 0.0, dbeta = 0.0;
        for (std::size_t i = 0; i < spatial; ++i) {
          const float xhat = (in[plane + i] - mu) * inv_std;
          const float dy = gout[plane + i];
          if (need_input) {
            const float dxhat = dy * gamma[c];
            sum_dxhat += dxhat;
            sum_dxhat_xhat += static_cast<double>(dxhat) * xhat;
          }
          dgamma += static_cast<double>(dy) * xhat;
          dbeta += dy;
        }
        grad_gamma[c] += static_cast<float>(dgamma);
        grad_beta[c] += static_cast<float>(dbeta);
      }
      if (!need_input) continue;

      // Second pass: dx = inv_std * (dxhat - mean(dxhat) - xhat*mean(dxhat*xhat)).
      const float mean_dxhat = static_cast<float>(sum_dxhat / n);
      const float mean_dxhat_xhat = static_cast<float>(sum_dxhat_xhat / n);
      for (std::size_t cg = 0; cg < chans_per_group; ++cg) {
        const std::size_t c = g * chans_per_group + cg;
        const std::size_t plane = (b * channels_ + c) * spatial;
        for (std::size_t i = 0; i < spatial; ++i) {
          const float xhat = (in[plane + i] - mu) * inv_std;
          const float dxhat = gout[plane + i] * gamma[c];
          gin[plane + i] =
              inv_std * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat);
        }
      }
    }
  }
}

std::unique_ptr<Layer> GroupNorm::clone() const {
  auto copy = std::make_unique<GroupNorm>(groups_, channels_, eps_);
  copy->params_ = params_;
  return copy;
}

}  // namespace skiptrain::nn
