// Optimizers operating on a Sequential's parameter and gradient arenas.
// The paper trains with plain SGD (Table 1); momentum and weight decay are
// provided for completeness and the extension benches.
#pragma once

#include <span>
#include <vector>

#include "nn/sequential.hpp"

namespace skiptrain::nn {

struct SgdOptions {
  float learning_rate = 0.1f;  // η in Table 1
  float momentum = 0.0f;
  float weight_decay = 0.0f;
};

class SgdOptimizer {
 public:
  explicit SgdOptimizer(SgdOptions options = {});

  const SgdOptions& options() const { return options_; }
  void set_learning_rate(float lr) { options_.learning_rate = lr; }

  /// Applies one update: p -= lr * (grad + wd * p) [+ momentum buffer],
  /// in one pass over the model's parameter and gradient arenas (the
  /// gradients must be attached). The momentum buffer is lazily sized to
  /// the model on first use.
  void step(Sequential& model);

  /// Clears momentum state (e.g. after a parameter overwrite from
  /// aggregation, where stale momentum would mix models incorrectly).
  void reset_state();

  /// Serializable optimizer state (the lazily-sized momentum buffer;
  /// empty until the first momentum step). Fleet checkpoints capture and
  /// restore it so resumed runs continue bit-exactly.
  std::span<const float> velocity() const { return velocity_; }
  void set_velocity(std::vector<float> velocity) {
    velocity_ = std::move(velocity);
  }

 private:
  SgdOptions options_;
  std::vector<float> velocity_;
};

}  // namespace skiptrain::nn
