#include "nn/optimizer.hpp"

namespace skiptrain::nn {

SgdOptimizer::SgdOptimizer(SgdOptions options) : options_(options) {}

void SgdOptimizer::step(Sequential& model) {
  const float lr = options_.learning_rate;
  const float wd = options_.weight_decay;
  const float mu = options_.momentum;

  if (mu != 0.0f && velocity_.size() != model.num_parameters()) {
    velocity_.assign(model.num_parameters(), 0.0f);
  }

  std::size_t offset = 0;
  for (std::size_t l = 0; l < model.num_layers(); ++l) {
    Layer& layer = model.layer(l);
    const std::span<float> p = layer.parameters();
    const std::span<const float> g = layer.gradients();
    for (std::size_t i = 0; i < p.size(); ++i) {
      float grad = g[i] + wd * p[i];
      if (mu != 0.0f) {
        float& v = velocity_[offset + i];
        v = mu * v + grad;
        grad = v;
      }
      p[i] -= lr * grad;
    }
    offset += p.size();
  }
}

void SgdOptimizer::reset_state() { velocity_.clear(); }

}  // namespace skiptrain::nn
