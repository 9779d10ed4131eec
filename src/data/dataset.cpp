#include "data/dataset.hpp"

#include <cassert>
#include <stdexcept>

namespace skiptrain::data {

void Dataset::validate() const {
  if (features.rank() == 0 && size() != 0) {
    throw std::runtime_error("Dataset: features missing");
  }
  if (features.rank() > 0 && features.dim(0) != size()) {
    throw std::runtime_error("Dataset: feature/label count mismatch");
  }
  for (const std::int32_t label : labels) {
    if (label < 0 || static_cast<std::size_t>(label) >= num_classes) {
      throw std::runtime_error("Dataset: label out of range");
    }
  }
}

DatasetView::DatasetView(const Dataset* dataset,
                         std::vector<std::size_t> indices)
    : dataset_(dataset), indices_(std::move(indices)) {
  assert(dataset_ != nullptr);
#ifndef NDEBUG
  for (const std::size_t idx : indices_) assert(idx < dataset_->size());
#endif
}

DatasetView DatasetView::whole(const Dataset* dataset) {
  std::vector<std::size_t> all(dataset->size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  return DatasetView(dataset, std::move(all));
}

namespace {

tensor::Shape batch_shape(const Dataset& dataset, std::size_t batch) {
  tensor::Shape shape = dataset.features.shape();
  shape[0] = batch;
  return shape;
}

}  // namespace

void DatasetView::sample_batch(util::Rng& rng, std::size_t batch_size,
                               tensor::Tensor& features,
                               std::vector<std::int32_t>& labels) const {
  assert(!empty());
  const std::size_t d = dataset_->feature_dim();
  const tensor::Shape shape = batch_shape(*dataset_, batch_size);
  if (features.shape() != shape) features = tensor::Tensor(shape);
  labels.resize(batch_size);
  for (std::size_t b = 0; b < batch_size; ++b) {
    const std::size_t pick =
        static_cast<std::size_t>(rng.uniform_int(indices_.size()));
    const std::size_t src = indices_[pick];
    const float* sample_ptr = dataset_->features.raw() + src * d;
    std::copy(sample_ptr, sample_ptr + d, features.raw() + b * d);
    labels[b] = dataset_->labels[src];
  }
}

void DatasetView::fill_range(std::size_t start, std::size_t count,
                             tensor::Tensor& features,
                             std::vector<std::int32_t>& labels) const {
  assert(start + count <= size());
  const std::size_t d = dataset_->feature_dim();
  const tensor::Shape shape = batch_shape(*dataset_, count);
  if (features.shape() != shape) features = tensor::Tensor(shape);
  labels.resize(count);
  for (std::size_t b = 0; b < count; ++b) {
    const std::size_t src = indices_[start + b];
    const float* sample_ptr = dataset_->features.raw() + src * d;
    std::copy(sample_ptr, sample_ptr + d, features.raw() + b * d);
    labels[b] = dataset_->labels[src];
  }
}

std::vector<std::size_t> DatasetView::class_histogram() const {
  std::vector<std::size_t> histogram(dataset_->num_classes, 0);
  for (const std::size_t idx : indices_) {
    ++histogram[static_cast<std::size_t>(dataset_->labels[idx])];
  }
  return histogram;
}

DatasetView FederatedData::node_view(std::size_t node) const {
  assert(node < node_indices.size());
  return DatasetView(&train, node_indices[node]);
}

std::pair<Dataset, Dataset> split_dataset(const Dataset& pool,
                                          double first_fraction,
                                          util::Rng& rng) {
  const std::size_t n = pool.size();
  const auto first_count =
      static_cast<std::size_t>(first_fraction * static_cast<double>(n));
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  rng.shuffle(std::span<std::size_t>(order));

  const std::size_t d = pool.feature_dim();
  const auto build = [&](std::size_t begin, std::size_t end) {
    Dataset out;
    tensor::Shape shape = pool.features.shape();
    shape[0] = end - begin;
    out.features = tensor::Tensor(shape);
    out.labels.resize(end - begin);
    out.num_classes = pool.num_classes;
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t src = order[i];
      const float* sample_ptr = pool.features.raw() + src * d;
      std::copy(sample_ptr, sample_ptr + d,
                out.features.raw() + (i - begin) * d);
      out.labels[i - begin] = pool.labels[src];
    }
    return out;
  };
  return {build(0, first_count), build(first_count, n)};
}

}  // namespace skiptrain::data
