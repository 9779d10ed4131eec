#include "nn/optimizer.hpp"

#include <cassert>

#include "util/isa.hpp"

namespace skiptrain::nn {

namespace {

// The update runs as avx2 code on AVX2 hosts; each element takes the same
// multiplies and adds, in the same order, in every clone.

SKIPTRAIN_GEMM_CLONES
void sgd_update(float* __restrict__ p, const float* __restrict__ g,
                std::size_t count, float lr, float wd) {
  for (std::size_t i = 0; i < count; ++i) {
    const float grad = g[i] + wd * p[i];
    p[i] -= lr * grad;
  }
}

SKIPTRAIN_GEMM_CLONES
void sgd_momentum_update(float* __restrict__ p, const float* __restrict__ g,
                         float* __restrict__ velocity, std::size_t count,
                         float lr, float wd, float mu) {
  for (std::size_t i = 0; i < count; ++i) {
    const float grad = g[i] + wd * p[i];
    velocity[i] = mu * velocity[i] + grad;
    p[i] -= lr * velocity[i];
  }
}

}  // namespace

SgdOptimizer::SgdOptimizer(SgdOptions options) : options_(options) {}

void SgdOptimizer::step(Sequential& model) {
  const float lr = options_.learning_rate;
  const float wd = options_.weight_decay;
  const float mu = options_.momentum;
  const std::span<float> p = model.parameter_arena();
  const std::span<const float> g = model.gradient_arena();
  assert(g.size() == p.size());

  if (mu == 0.0f) {
    sgd_update(p.data(), g.data(), p.size(), lr, wd);
    return;
  }
  if (velocity_.size() != p.size()) velocity_.assign(p.size(), 0.0f);
  sgd_momentum_update(p.data(), g.data(), velocity_.data(), p.size(), lr, wd,
                      mu);
}

void SgdOptimizer::reset_state() { velocity_.clear(); }

}  // namespace skiptrain::nn
