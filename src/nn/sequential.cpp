#include "nn/sequential.hpp"

#include <cassert>
#include <sstream>
#include <stdexcept>

namespace skiptrain::nn {

Sequential::Sequential(Sequential&& other) noexcept
    : layers_(std::move(other.layers_)),
      activations_(std::move(other.activations_)),
      owned_arena_(std::move(other.owned_arena_)),
      arena_(other.arena_),
      external_arena_(other.external_arena_) {
  other.arena_ = {};
  other.external_arena_ = false;
}

Sequential& Sequential::operator=(Sequential&& other) noexcept {
  if (this != &other) {
    layers_ = std::move(other.layers_);
    activations_ = std::move(other.activations_);
    owned_arena_ = std::move(other.owned_arena_);
    arena_ = other.arena_;
    external_arena_ = other.external_arena_;
    other.arena_ = {};
    other.external_arena_ = false;
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
  std::size_t offset = 0;
  for (auto& layer : layers_) {
    const std::size_t count = layer->parameter_count();
    layer->bind_parameters(std::span<float>(fresh).subspan(offset, count));
    offset += count;
  }
  owned_arena_ = std::move(fresh);
  arena_ = owned_arena_;
  external_arena_ = false;
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

const Tensor& Sequential::forward(const Tensor& input) {
  return forward(input, activations_);
}

const Tensor& Sequential::forward(const Tensor& input,
                                  std::vector<Tensor>& buffers) {
  if (layers_.empty()) {
    throw std::logic_error("Sequential::forward: model has no layers");
  }
  buffers.resize(layers_.size());
  const Tensor* current = &input;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const Shape out_shape = layers_[i]->output_shape(current->shape());
    if (buffers[i].shape() != out_shape) buffers[i] = Tensor(out_shape);
    layers_[i]->forward(*current, buffers[i]);
    current = &buffers[i];
  }
  return buffers.back();
}

void Sequential::backward(const Tensor& input, const Tensor& grad_logits) {
  assert(activations_.size() == layers_.size());
  // Nothing reads the gradient wrt the model input, so backprop stops at
  // the first parameter layer: the parameter-free layers in front of it
  // are skipped, and it gets an empty grad_input ("not needed", see
  // Layer::backward).
  std::size_t first = 0;
  while (first < layers_.size() && layers_[first]->parameter_count() == 0) {
    ++first;
  }
  // Gradient buffers are local to the call: kept per model, they would
  // cost every node replica of a fleet its own copy, and kept per thread,
  // a CNN's would outlive the pass and raise peak RSS.
  Tensor grad_out;
  for (std::size_t i = layers_.size(); i-- > first;) {
    const Tensor& layer_input = (i == 0) ? input : activations_[i - 1];
    Tensor grad_in = i > first ? Tensor(layer_input.shape()) : Tensor();
    layers_[i]->backward(layer_input,
                         i + 1 == layers_.size() ? grad_logits : grad_out,
                         grad_in);
    grad_out = std::move(grad_in);
  }
}

void Sequential::zero_grad() {
  for (auto& layer : layers_) layer->zero_grad();
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
  assert(out.size() == num_parameters());
  std::size_t offset = 0;
  for (const auto& layer : layers_) {
    auto grads = const_cast<Layer&>(*layer).gradients();
    std::copy(grads.begin(), grads.end(), out.begin() + offset);
    offset += grads.size();
  }
}

void Sequential::apply_parameter_delta(std::span<const float> delta) {
  assert(delta.size() == num_parameters());
  for (std::size_t i = 0; i < arena_.size(); ++i) arena_[i] -= delta[i];
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

}  // namespace skiptrain::nn
