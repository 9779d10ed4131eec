// Per-node simulation state: the private model replica, optimizer, local
// data shard and RNG stream. One instance per simulated device. The replica
// holds only its parameters (a plane row); what a training step writes —
// batch, activations, gradients — lives in the worker's nn::Workspace.
#pragma once

#include <cstdint>

#include "data/dataset.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"
#include "util/rng.hpp"

namespace skiptrain::sim {

class Node {
 public:
  /// `prototype` supplies architecture AND initial weights — every node
  /// starts from the same x⁰ as the D-PSGD analysis assumes.
  Node(std::size_t id, const nn::Sequential& prototype,
       data::DatasetView data, nn::SgdOptions sgd, std::uint64_t seed);

  std::size_t id() const { return id_; }
  nn::Sequential& model() { return model_; }
  const nn::Sequential& model() const { return model_; }
  data::DatasetView& data() { return data_; }

  /// Mutable simulation state beyond the model parameters (which live in
  /// the engine's plane): the batch-sampling RNG stream and the optimizer
  /// momentum buffer. Exposed so fleet checkpoints (ckpt/fleet_image) can
  /// capture and restore a node bit-exactly.
  util::Rng& rng() { return rng_; }
  const util::Rng& rng() const { return rng_; }
  nn::SgdOptimizer& optimizer() { return optimizer_; }
  const nn::SgdOptimizer& optimizer() const { return optimizer_; }

  /// Executes E steps of mini-batch SGD on the local shard (Algorithm 2,
  /// lines 8-10) in the calling thread's workspace, attaching its gradient
  /// arena to the model for the call only. Returns the mean training loss
  /// across the steps.
  double train_local(std::size_t local_steps, std::size_t batch_size);

 private:
  std::size_t id_;
  nn::Sequential model_;
  nn::SgdOptimizer optimizer_;
  data::DatasetView data_;
  util::Rng rng_;
};

}  // namespace skiptrain::sim
