#include "sim/node.hpp"

#include "nn/loss.hpp"

namespace skiptrain::sim {

Node::Node(std::size_t id, const nn::Sequential& prototype,
           data::DatasetView data, nn::SgdOptions sgd, std::uint64_t seed)
    : id_(id),
      model_(prototype.clone()),
      optimizer_(sgd),
      data_(std::move(data)),
      rng_(util::hash_combine(seed, 0x0de50000ULL + id)) {
  model_.attach_gradient_arena({});
}

double Node::train_local(std::size_t local_steps, std::size_t batch_size) {
  nn::Workspace& ws = nn::worker_workspace();
  ws.gradients.resize(model_.num_parameters());
  model_.attach_gradient_arena(ws.gradients);
  double total_loss = 0.0;
  for (std::size_t step = 0; step < local_steps; ++step) {
    data_.sample_batch(rng_, batch_size, ws.features, ws.labels);
    model_.zero_grad();
    const tensor::Tensor& logits = model_.forward(ws.features, ws.buffers);
    if (ws.grad_logits.shape() != logits.shape()) {
      ws.grad_logits = tensor::Tensor(logits.shape());
    }
    const nn::LossResult result =
        nn::softmax_cross_entropy(logits, ws.labels, ws.grad_logits);
    model_.backward(ws.features, ws.grad_logits, ws.buffers);
    optimizer_.step(model_);
    total_loss += result.loss;
  }
  model_.attach_gradient_arena({});
  return local_steps > 0 ? total_loss / static_cast<double>(local_steps) : 0.0;
}

}  // namespace skiptrain::sim
