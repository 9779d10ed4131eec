// Sequential container = the "model" type of this library. Owns layers and
// keeps ALL parameters in one contiguous flat arena (layer order,
// weights-then-bias within a layer), and all gradients in a second arena of
// the same layout. Both arenas are self-owned by default, so standalone
// models behave exactly like value types; a simulation engine rebinds a
// node replica's parameters into an externally owned arena (a
// plane::ParameterPlane row) to make whole-fleet aggregation a zero-copy
// contiguous operation, and gives it gradients only while it trains.
//
// Layer-view contract: layers VIEW spans of the arenas instead of owning
// storage. add(), clone() into a new object, bind_parameter_arena(),
// attach_parameter_arena() and attach_gradient_arena() re-lay an arena and
// therefore invalidate every span previously obtained from it
// (parameters()/gradients()/parameter_arena()/weights()). Spans stay valid
// across forward/backward/optimizer steps and across moves of the
// Sequential itself.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "nn/layer.hpp"

namespace skiptrain::nn {

class Sequential {
 public:
  Sequential() = default;

  // Movable, non-copyable (use clone() for explicit deep copies). Moves
  // keep layer spans valid: the arena's heap buffer travels with it.
  Sequential(Sequential&& other) noexcept;
  Sequential& operator=(Sequential&& other) noexcept;
  Sequential(const Sequential&) = delete;
  Sequential& operator=(const Sequential&) = delete;

  /// Appends a layer; returns *this for chaining. Re-lays the self-owned
  /// arena (throws std::logic_error if bound to an external arena).
  Sequential& add(std::unique_ptr<Layer> layer);

  /// Convenience: constructs a layer in place.
  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  std::size_t num_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }
  const Layer& layer(std::size_t i) const { return *layers_[i]; }

  /// Runs the forward pass in the model's own buffers and returns the
  /// final activation (logits). Buffers are retained across calls and
  /// resized when the batch changes.
  const Tensor& forward(const Tensor& input);

  /// The same forward pass into caller-owned `buffers`, returning the
  /// logits. `buffers` is scratch for one pass at a time: it is sized to
  /// num_layers() + 2, the output of layer i goes to buffers[i], and the
  /// paired backward keeps its gradients in the last two slots. The model
  /// keeps nothing of the pass, so one set of buffers per thread serves
  /// every model that thread trains or evaluates.
  const Tensor& forward(const Tensor& input, std::vector<Tensor>& buffers);

  /// Backpropagates `grad_logits` down to the first parameter layer,
  /// accumulating parameter gradients; the gradient wrt the model input is
  /// never computed. Must follow a forward() on the same input (the
  /// three-argument form: a forward(input, buffers) into the same
  /// `buffers`), and the gradients must be attached.
  void backward(const Tensor& input, const Tensor& grad_logits);
  void backward(const Tensor& input, const Tensor& grad_logits,
                std::vector<Tensor>& buffers);

  /// Zeroes the gradient arena.
  void zero_grad();

  /// Total parameter count across layers (== parameter_arena().size()).
  std::size_t num_parameters() const { return arena_.size(); }

  /// The contiguous flat storage every parameter lives in. Zero-copy view
  /// of the whole model; invalidated by add/bind/attach (see the
  /// layer-view contract above).
  std::span<float> parameter_arena() { return arena_; }
  std::span<const float> parameter_arena() const { return arena_; }

  /// True while the arena is self-owned (not an external plane row).
  bool owns_parameter_arena() const { return !external_arena_; }

  /// Migrates every layer's parameters into `arena` (contiguous, layer
  /// order), copying the current values. `arena` must outlive the model
  /// (or the next bind/attach). Size must equal num_parameters().
  void bind_parameter_arena(std::span<float> arena);

  /// Repoints the layers into `arena` WITHOUT copying: the caller
  /// guarantees `arena` already holds this model's parameters in layout
  /// order (e.g. the freshly aggregated plane row after a buffer flip).
  void attach_parameter_arena(std::span<float> arena);

  /// Copies all parameters into / from one flat contiguous vector, ordered
  /// by layer. This is the model representation exchanged between nodes
  /// when a caller wants an owned snapshot; engines use the arena views.
  void get_parameters(std::span<float> out) const;
  void set_parameters(std::span<const float> in);
  std::vector<float> parameters_flat() const;

  /// The contiguous flat storage every gradient lives in, laid out like
  /// the parameter arena; empty while detached.
  std::span<float> gradient_arena() { return gradients_; }
  std::span<const float> gradient_arena() const { return gradients_; }

  /// Repoints every layer's gradients into `arena` (size num_parameters())
  /// WITHOUT copying, or detaches them when `arena` is empty, freeing the
  /// model's own gradient storage. `arena` must outlive the attachment; a
  /// node replica attaches its worker's arena for one train_local call.
  void attach_gradient_arena(std::span<float> arena);

  /// Copies all gradients into one flat vector (ordered as parameters).
  void get_gradients(std::span<float> out) const;

  /// Deep copy of layers and parameters. The copy owns both arenas, its
  /// gradients zeroed.
  [[nodiscard]] Sequential clone() const;

  /// Human-readable architecture summary, one layer per line.
  [[nodiscard]] std::string summary() const;

 private:
  /// Rebuilds the self-owned arenas from the current layer list, migrating
  /// every layer's parameter values into the first and zeroing the second.
  void relayout_owned_arena();

  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<Tensor> buffers_;     // forward(input)'s; see forward(input, buffers)
  std::vector<float> owned_arena_;  // empty when bound externally
  std::span<float> arena_;          // where the parameters actually live
  bool external_arena_ = false;
  std::vector<float> owned_gradients_;  // empty when attached or detached
  std::span<float> gradients_;          // where the gradients live, if anywhere
};

/// One worker thread's scratch for every model it trains or evaluates:
/// what a training step or an eval forward writes and nothing after it
/// reads. Algorithm 2 carries only the model from one round to the next,
/// so node replicas hold none of this and a fleet pays for one workspace
/// per worker thread, not one per node.
struct Workspace {
  std::vector<Tensor> buffers;    // forward(input, buffers) + backward
  std::vector<float> gradients;   // gradient arena of the model in training
  Tensor features;                // the training batch
  std::vector<std::int32_t> labels;
  Tensor grad_logits;
};

/// The calling thread's workspace.
Workspace& worker_workspace();

}  // namespace skiptrain::nn
