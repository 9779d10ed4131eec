// Top-1 accuracy / loss evaluation of node models against the shared
// validation or test split (paper §4.2 "Metrics").
#pragma once

#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "nn/sequential.hpp"
#include "plane/plane.hpp"
#include "util/stats.hpp"

namespace skiptrain::metrics {

struct EvalResult {
  double accuracy = 0.0;
  double loss = 0.0;
};

class Evaluator {
 public:
  /// Evaluates against the first `max_samples` samples of `dataset`
  /// (0 = all of them), in batches of `batch_size`. The constructor copies
  /// those samples into the evaluator's batches once; the dataset is read
  /// nowhere else, so it need only outlive the constructor call. Throws
  /// std::invalid_argument on a null or empty dataset or a zero batch size.
  explicit Evaluator(const data::Dataset* dataset, std::size_t max_samples = 0,
                     std::size_t batch_size = 256);

  /// Accuracy/loss of one model. The batches are read-only and the forward
  /// runs in the calling thread's nn::Workspace, so concurrent calls on
  /// distinct models are safe.
  EvalResult evaluate(nn::Sequential& model) const;

  /// Accuracy/loss of the model whose parameters are the arithmetic mean
  /// of `node_params` — the paper's "all-reduced model" metric (Fig. 1).
  /// `prototype` provides the architecture (cloned internally). The plane
  /// view form reads engine rows zero-copy; the vector form serves owned
  /// snapshots.
  EvalResult evaluate_average(const nn::Sequential& prototype,
                              plane::ConstMatrixView node_params) const;
  EvalResult evaluate_average(
      const nn::Sequential& prototype,
      std::span<const std::vector<float>> node_params) const;

  /// Per-node accuracies for a set of models, evaluated in parallel on the
  /// global thread pool. Returns mean/std summary plus raw accuracies; each
  /// equals evaluate(model).accuracy bit for bit, without the loss. Eval
  /// activations live in each worker's nn::Workspace, not per node.
  struct FleetResult {
    util::Summary accuracy;
    std::vector<double> per_node;
  };
  FleetResult evaluate_fleet(std::span<nn::Sequential* const> models) const;

  std::size_t samples_used() const { return samples_; }

 private:
  struct Batch {
    tensor::Tensor features;
    std::vector<std::int32_t> labels;
  };

  /// Top-1 accuracy of one model: evaluate() without the loss.
  double accuracy(nn::Sequential& model) const;

  std::size_t samples_ = 0;
  std::vector<Batch> batches_;  // consecutive samples [0, samples_)
};

}  // namespace skiptrain::metrics
