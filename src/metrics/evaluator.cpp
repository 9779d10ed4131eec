#include "metrics/evaluator.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/loss.hpp"
#include "util/thread_pool.hpp"

namespace skiptrain::metrics {

namespace {

/// Arithmetic mean over rows supplied by any accessor i -> span<const float>.
template <typename RowFn>
std::vector<float> mean_of_rows(std::size_t rows, std::size_t dim,
                                RowFn row) {
  std::vector<float> mean(dim, 0.0f);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::span<const float> params = row(r);
    for (std::size_t i = 0; i < dim; ++i) mean[i] += params[i];
  }
  const float inv = 1.0f / static_cast<float>(rows);
  for (auto& v : mean) v *= inv;
  return mean;
}

}  // namespace

Evaluator::Evaluator(const data::Dataset* dataset, std::size_t max_samples,
                     std::size_t batch_size) {
  if (dataset == nullptr || dataset->size() == 0) {
    throw std::invalid_argument("Evaluator: empty dataset");
  }
  if (batch_size == 0) {
    throw std::invalid_argument("Evaluator: batch_size must be positive");
  }
  samples_ = (max_samples == 0) ? dataset->size()
                                : std::min(max_samples, dataset->size());
  const data::DatasetView view = data::DatasetView::whole(dataset);
  batches_.resize((samples_ + batch_size - 1) / batch_size);
  for (std::size_t b = 0; b < batches_.size(); ++b) {
    const std::size_t start = b * batch_size;
    view.fill_range(start, std::min(batch_size, samples_ - start),
                    batches_[b].features, batches_[b].labels);
  }
}

EvalResult Evaluator::evaluate(nn::Sequential& model) const {
  std::vector<tensor::Tensor>& buffers = nn::worker_workspace().buffers;
  double weighted_loss = 0.0;
  double weighted_acc = 0.0;
  for (const Batch& batch : batches_) {
    const tensor::Tensor& logits = model.forward(batch.features, buffers);
    const nn::LossResult result =
        nn::softmax_cross_entropy_eval(logits, batch.labels);
    const auto count = static_cast<double>(batch.labels.size());
    weighted_loss += result.loss * count;
    weighted_acc += result.accuracy * count;
  }
  return EvalResult{weighted_acc / static_cast<double>(samples_),
                    weighted_loss / static_cast<double>(samples_)};
}

double Evaluator::accuracy(nn::Sequential& model) const {
  std::vector<tensor::Tensor>& buffers = nn::worker_workspace().buffers;
  double weighted_acc = 0.0;
  for (const Batch& batch : batches_) {
    const tensor::Tensor& logits = model.forward(batch.features, buffers);
    const std::size_t classes = logits.numel() / batch.labels.size();
    std::size_t correct = 0;
    for (std::size_t i = 0; i < batch.labels.size(); ++i) {
      const std::span<const float> row(logits.raw() + i * classes, classes);
      if (nn::argmax(row) == static_cast<std::size_t>(batch.labels[i])) {
        ++correct;
      }
    }
    // The same (correct / count) * count as evaluate(), so no bit moves.
    const auto count = static_cast<double>(batch.labels.size());
    weighted_acc += static_cast<double>(correct) / count * count;
  }
  return weighted_acc / static_cast<double>(samples_);
}

EvalResult Evaluator::evaluate_average(
    const nn::Sequential& prototype,
    plane::ConstMatrixView node_params) const {
  if (node_params.empty()) {
    throw std::invalid_argument("evaluate_average: no node parameters");
  }
  const std::vector<float> mean =
      mean_of_rows(node_params.rows, node_params.dim,
                   [&](std::size_t i) { return node_params.row(i); });
  nn::Sequential averaged = prototype.clone();
  averaged.set_parameters(mean);
  return evaluate(averaged);
}

EvalResult Evaluator::evaluate_average(
    const nn::Sequential& prototype,
    std::span<const std::vector<float>> node_params) const {
  if (node_params.empty()) {
    throw std::invalid_argument("evaluate_average: no node parameters");
  }
  const std::size_t dim = node_params.front().size();
  for (const auto& params : node_params) {
    if (params.size() != dim) {
      throw std::invalid_argument("evaluate_average: ragged parameter list");
    }
  }
  const std::vector<float> mean =
      mean_of_rows(node_params.size(), dim, [&](std::size_t i) {
        return std::span<const float>(node_params[i]);
      });
  nn::Sequential averaged = prototype.clone();
  averaged.set_parameters(mean);
  return evaluate(averaged);
}

Evaluator::FleetResult Evaluator::evaluate_fleet(
    std::span<nn::Sequential* const> models) const {
  FleetResult result;
  result.per_node.assign(models.size(), 0.0);
  util::parallel_for(0, models.size(), [&](std::size_t i) {
    result.per_node[i] = accuracy(*models[i]);
  });
  util::RunningStat stat;
  for (const double acc : result.per_node) stat.add(acc);
  result.accuracy = util::Summary{stat.count(), stat.mean(), stat.stddev(),
                                  stat.min(), stat.max()};
  return result;
}

}  // namespace skiptrain::metrics
