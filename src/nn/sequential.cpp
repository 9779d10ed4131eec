#include "nn/sequential.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>

namespace skiptrain::nn {

Sequential::Sequential(Sequential&& other) noexcept
    : layers_(std::move(other.layers_)),
      buffers_(std::move(other.buffers_)),
      owned_arena_(std::move(other.owned_arena_)),
      arena_(other.arena_),
      external_arena_(other.external_arena_),
      owned_gradients_(std::move(other.owned_gradients_)),
      gradients_(other.gradients_) {
  other.arena_ = {};
  other.external_arena_ = false;
  other.gradients_ = {};
}

Sequential& Sequential::operator=(Sequential&& other) noexcept {
  if (this != &other) {
    layers_ = std::move(other.layers_);
    buffers_ = std::move(other.buffers_);
    owned_arena_ = std::move(other.owned_arena_);
    arena_ = other.arena_;
    external_arena_ = other.external_arena_;
    owned_gradients_ = std::move(other.owned_gradients_);
    gradients_ = other.gradients_;
    other.arena_ = {};
    other.external_arena_ = false;
    other.gradients_ = {};
  }
  return *this;
}

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
  if (external_arena_) {
    throw std::logic_error(
        "Sequential::add: model is bound to an external arena");
  }
  layers_.push_back(std::move(layer));
  relayout_owned_arena();
  return *this;
}

void Sequential::relayout_owned_arena() {
  std::size_t total = 0;
  for (const auto& layer : layers_) total += layer->parameter_count();
  // Migrate values layer by layer; the old arena (layer-owned storage or
  // the previous owned_arena_) stays alive until after the loop.
  std::vector<float> fresh(total);
  std::vector<float> fresh_gradients(total, 0.0f);
  std::size_t offset = 0;
  for (auto& layer : layers_) {
    const std::size_t count = layer->parameter_count();
    layer->bind_parameters(std::span<float>(fresh).subspan(offset, count));
    layer->attach_gradients(
        std::span<float>(fresh_gradients).subspan(offset, count));
    offset += count;
  }
  owned_arena_ = std::move(fresh);
  arena_ = owned_arena_;
  external_arena_ = false;
  owned_gradients_ = std::move(fresh_gradients);
  gradients_ = owned_gradients_;
}

void Sequential::bind_parameter_arena(std::span<float> arena) {
  if (arena.size() != num_parameters()) {
    throw std::invalid_argument("bind_parameter_arena: size mismatch");
  }
  std::size_t offset = 0;
  for (auto& layer : layers_) {
    const std::size_t count = layer->parameter_count();
    layer->bind_parameters(arena.subspan(offset, count));
    offset += count;
  }
  arena_ = arena;
  external_arena_ = true;
  owned_arena_.clear();
  owned_arena_.shrink_to_fit();
}

void Sequential::attach_parameter_arena(std::span<float> arena) {
  if (arena.size() != num_parameters()) {
    throw std::invalid_argument("attach_parameter_arena: size mismatch");
  }
  std::size_t offset = 0;
  for (auto& layer : layers_) {
    const std::size_t count = layer->parameter_count();
    layer->attach_parameters(arena.subspan(offset, count));
    offset += count;
  }
  arena_ = arena;
  external_arena_ = true;
  owned_arena_.clear();
  owned_arena_.shrink_to_fit();
}

void Sequential::attach_gradient_arena(std::span<float> arena) {
  if (!arena.empty() && arena.size() != num_parameters()) {
    throw std::invalid_argument("attach_gradient_arena: size mismatch");
  }
  std::size_t offset = 0;
  for (auto& layer : layers_) {
    const std::size_t count = layer->parameter_count();
    layer->attach_gradients(arena.empty() ? arena
                                          : arena.subspan(offset, count));
    offset += count;
  }
  gradients_ = arena;
  owned_gradients_.clear();
  owned_gradients_.shrink_to_fit();
}

const Tensor& Sequential::forward(const Tensor& input) {
  return forward(input, buffers_);
}

const Tensor& Sequential::forward(const Tensor& input,
                                  std::vector<Tensor>& buffers) {
  if (layers_.empty()) {
    throw std::logic_error("Sequential::forward: model has no layers");
  }
  buffers.resize(layers_.size() + 2);
  const Tensor* current = &input;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const Shape out_shape = layers_[i]->output_shape(current->shape());
    if (buffers[i].shape() != out_shape) buffers[i] = Tensor(out_shape);
    layers_[i]->forward(*current, buffers[i]);
    current = &buffers[i];
  }
  return *current;
}

void Sequential::backward(const Tensor& input, const Tensor& grad_logits) {
  backward(input, grad_logits, buffers_);
}

void Sequential::backward(const Tensor& input, const Tensor& grad_logits,
                          std::vector<Tensor>& buffers) {
  const std::size_t n = layers_.size();
  assert(buffers.size() == n + 2);
  assert(gradients_.size() == num_parameters());
  // Nothing reads the gradient wrt the model input, so backprop stops at
  // the first parameter layer: the parameter-free layers in front of it
  // are skipped, and it gets an empty grad_input ("not needed", see
  // Layer::backward).
  std::size_t first = 0;
  while (first < n && layers_[first]->parameter_count() == 0) ++first;
  // Each layer's input gradient lives in one of the two slots after the
  // activations, alternating, so it stays readable while the next layer
  // down writes the other. Layers overwrite grad_input, so the slots are
  // resized without clearing; past the first step they reuse their
  // allocations.
  Tensor not_needed;
  const Tensor* grad_out = &grad_logits;
  for (std::size_t i = n; i-- > first;) {
    const Tensor& layer_input = (i == 0) ? input : buffers[i - 1];
    Tensor& grad_in = i > first ? buffers[n + i % 2] : not_needed;
    if (i > first) grad_in.resize(layer_input.shape());
    layers_[i]->backward(layer_input, *grad_out, grad_in);
    grad_out = &grad_in;
  }
}

void Sequential::zero_grad() {
  std::fill(gradients_.begin(), gradients_.end(), 0.0f);
}

void Sequential::get_parameters(std::span<float> out) const {
  assert(out.size() == num_parameters());
  std::copy(arena_.begin(), arena_.end(), out.begin());
}

void Sequential::set_parameters(std::span<const float> in) {
  assert(in.size() == num_parameters());
  std::copy(in.begin(), in.end(), arena_.begin());
}

std::vector<float> Sequential::parameters_flat() const {
  return std::vector<float>(arena_.begin(), arena_.end());
}

void Sequential::get_gradients(std::span<float> out) const {
  assert(out.size() == gradients_.size());
  std::copy(gradients_.begin(), gradients_.end(), out.begin());
}

Sequential Sequential::clone() const {
  Sequential copy;
  for (const auto& layer : layers_) copy.layers_.push_back(layer->clone());
  copy.relayout_owned_arena();
  return copy;
}

std::string Sequential::summary() const {
  std::ostringstream out;
  std::size_t total = 0;
  for (const auto& layer : layers_) {
    const std::size_t count = layer->parameters().size();
    out << "  " << layer->name() << "  params=" << count << '\n';
    total += count;
  }
  out << "  total parameters: " << total << '\n';
  return out.str();
}

Workspace& worker_workspace() {
  thread_local Workspace workspace;
  return workspace;
}

}  // namespace skiptrain::nn
