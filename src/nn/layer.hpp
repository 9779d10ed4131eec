// Layer abstraction for the from-scratch neural-network stack.
//
// Design notes
// ------------
// * Parameters live in one flat float block per layer (weights first, then
//   bias), exposed as a span. The block is VIEWED, not necessarily owned:
//   a freshly constructed layer owns its storage, but a Sequential rebinds
//   every layer into one contiguous arena — its own by default, or an
//   externally owned plane row (plane::ParameterPlane) when a simulation
//   engine hosts thousands of model replicas. This makes whole-model
//   aggregation a zero-copy operation on contiguous memory, exactly the
//   view D-PSGD/SkipTrain need.
// * Gradients are views too, of a same-sized block. Standalone layers and
//   models own theirs; a simulated node's replica owns none and attaches
//   its worker thread's gradient arena only while it trains
//   (sim::Node::train_local), because gradients are private scratch of a
//   training step and never travel between nodes.
// * Layers hold no state besides parameters and gradients: backward
//   recomputes from its `input` what it needs of the forward (max-pool
//   routing, group-norm statistics). A forward on another batch therefore
//   never invalidates a pending backward, and node replicas carry no
//   per-batch caches.
// * Batch dimension is always tensor dim 0.
#pragma once

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace skiptrain::nn {

using tensor::Shape;
using tensor::Tensor;

/// Flat parameter (or gradient) block of a layer: a span view over storage
/// that is either layer-owned (standalone use, fresh clones) or part of an
/// external arena (a Sequential's contiguous arena or a plane row). Copying
/// a ParamStorage copies the *values* into fresh self-owned storage —
/// exactly the semantics clone() wants. A block can also be detached: it
/// keeps its size but views no storage until the next bind or attach.
class ParamStorage {
 public:
  ParamStorage() = default;
  explicit ParamStorage(std::size_t count)
      : count_(count), owned_(count, 0.0f), view_(owned_) {}

  ParamStorage(const ParamStorage& other)
      : count_(other.count_),
        owned_(other.view_.begin(), other.view_.end()),
        view_(owned_) {}
  ParamStorage& operator=(const ParamStorage& other) {
    if (this != &other) {
      count_ = other.count_;
      owned_.assign(other.view_.begin(), other.view_.end());
      view_ = owned_;
    }
    return *this;
  }
  // Layers live behind unique_ptr and never move; keep the view/ownership
  // invariant simple by forbidding moves.
  ParamStorage(ParamStorage&&) = delete;
  ParamStorage& operator=(ParamStorage&&) = delete;

  /// Number of floats in the block, attached or not.
  std::size_t size() const { return count_; }
  /// The block's values; empty while detached.
  std::span<float> view() { return view_; }
  std::span<const float> view() const { return view_; }
  float* data() { return view_.data(); }
  const float* data() const { return view_.data(); }
  float& operator[](std::size_t i) { return view_[i]; }
  float operator[](std::size_t i) const { return view_[i]; }

  /// Migrates the block into `storage`: copies the current values over and
  /// repoints the view. Invalidates previously returned spans.
  void bind(std::span<float> storage) {
    check_size(storage);
    if (storage.data() != view_.data()) {
      std::copy(view_.begin(), view_.end(), storage.begin());
    }
    view_ = storage;
    release_owned();
  }

  /// Repoints the view WITHOUT copying: `storage` must already hold this
  /// block's values (e.g. the freshly aggregated plane row), or the caller
  /// does not need them (a gradient arena about to be zeroed).
  void attach(std::span<float> storage) {
    check_size(storage);
    view_ = storage;
    release_owned();
  }

  /// Drops the storage: view() is empty until the next bind or attach.
  void detach() {
    view_ = {};
    release_owned();
  }

 private:
  void check_size(std::span<float> storage) const {
    if (storage.size() != count_) {
      throw std::invalid_argument("ParamStorage: storage size mismatch");
    }
  }
  void release_owned() {
    owned_.clear();
    owned_.shrink_to_fit();
  }

  std::size_t count_ = 0;
  std::vector<float> owned_;  // empty once bound to an external arena
  std::span<float> view_;
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Human-readable layer name ("Linear(64->10)").
  virtual std::string name() const = 0;

  /// Given the per-batch input shape (including batch dim 0), returns the
  /// output shape. Throws std::invalid_argument on incompatible shapes.
  virtual Shape output_shape(const Shape& input_shape) const = 0;

  /// Computes output = f(input). `output` is pre-sized by the caller to
  /// output_shape(input.shape()).
  virtual void forward(const Tensor& input, Tensor& output) = 0;

  /// Accumulates parameter gradients and writes grad wrt input.
  /// Contract: called after forward() on the same `input`. `grad_input` is
  /// either sized like `input`, with unspecified contents that the layer
  /// overwrites, or empty, meaning "not needed": the caller is the front
  /// of a model, where nothing reads the input gradient. Parameter layers
  /// then skip the input-gradient work; Sequential::backward never calls a
  /// parameter-free layer that way (it skips such layers at the front).
  virtual void backward(const Tensor& input, const Tensor& grad_output,
                        Tensor& grad_input) = 0;

  /// Flat parameter/gradient storage; empty spans for parameter-free layers
  /// (and gradients() also while the gradients are detached).
  virtual std::span<float> parameters() { return {}; }
  virtual std::span<const float> parameters() const { return {}; }
  virtual std::span<float> gradients() { return {}; }

  /// Number of learnable parameters (== parameters().size()).
  virtual std::size_t parameter_count() const { return 0; }

  /// Migrates parameter storage into `storage` (size parameter_count()),
  /// copying the current values. Spans previously returned by parameters()
  /// are invalidated. Parameter-free layers accept only an empty span.
  virtual void bind_parameters(std::span<float> storage) {
    require_empty(storage);
  }

  /// Repoints parameter storage WITHOUT copying: `storage` must already
  /// hold this layer's parameters (caller-managed arena contents).
  virtual void attach_parameters(std::span<float> storage) {
    require_empty(storage);
  }

  /// Repoints gradient storage at `storage` (size parameter_count())
  /// WITHOUT copying, or detaches it when `storage` is empty: gradients()
  /// is then empty and backward() must not run until the next attach.
  virtual void attach_gradients(std::span<float> storage) {
    require_empty(storage);
  }

  virtual void zero_grad() {}

  /// Deep copy (used to instantiate one model per simulated node). The
  /// copy always owns its parameter storage, regardless of how the source
  /// was bound, and owns zeroed gradients.
  virtual std::unique_ptr<Layer> clone() const = 0;

 private:
  static void require_empty(std::span<float> storage) {
    if (!storage.empty()) {
      throw std::invalid_argument("Layer: layer has no parameters");
    }
  }
};

/// Base for layers whose parameters live in one flat ParamStorage block
/// with a same-sized gradient block; implements the storage plumbing
/// (views, counts, bind/attach, zero_grad) once.
class ParamLayer : public Layer {
 public:
  std::span<float> parameters() override { return params_.view(); }
  std::span<const float> parameters() const override { return params_.view(); }
  std::span<float> gradients() override { return grads_.view(); }
  std::size_t parameter_count() const override { return params_.size(); }
  void bind_parameters(std::span<float> storage) override {
    params_.bind(storage);
  }
  void attach_parameters(std::span<float> storage) override {
    params_.attach(storage);
  }
  void attach_gradients(std::span<float> storage) override {
    if (storage.empty()) {
      grads_.detach();
    } else {
      grads_.attach(storage);
    }
  }
  void zero_grad() override {
    const std::span<float> grads = grads_.view();
    std::fill(grads.begin(), grads.end(), 0.0f);
  }

 protected:
  explicit ParamLayer(std::size_t count) : params_(count), grads_(count) {}

  ParamStorage params_;
  ParamStorage grads_;
};

}  // namespace skiptrain::nn
