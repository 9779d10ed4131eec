#include "nn/optimizer.hpp"

#include <cassert>

namespace skiptrain::nn {

SgdOptimizer::SgdOptimizer(SgdOptions options) : options_(options) {}

void SgdOptimizer::step(Sequential& model) {
  const float lr = options_.learning_rate;
  const float wd = options_.weight_decay;
  const float mu = options_.momentum;
  const std::span<float> p = model.parameter_arena();
  const std::span<const float> g = model.gradient_arena();
  assert(g.size() == p.size());

  if (mu != 0.0f && velocity_.size() != p.size()) {
    velocity_.assign(p.size(), 0.0f);
  }

  for (std::size_t i = 0; i < p.size(); ++i) {
    float grad = g[i] + wd * p[i];
    if (mu != 0.0f) {
      float& v = velocity_[i];
      v = mu * v + grad;
      grad = v;
    }
    p[i] -= lr * grad;
  }
}

void SgdOptimizer::reset_state() { velocity_.clear(); }

}  // namespace skiptrain::nn
