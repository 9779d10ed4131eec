// End-to-end single-model training: the nn substrate must actually learn.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/groupnorm.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/model_zoo.hpp"
#include "nn/optimizer.hpp"
#include "nn/pool.hpp"
#include "obs/registry.hpp"
#include "util/rng.hpp"

namespace skiptrain::nn {
namespace {

/// Two Gaussian blobs in 2D, linearly separable.
void make_blobs(util::Rng& rng, std::size_t n, tensor::Tensor& features,
                std::vector<std::int32_t>& labels) {
  features = tensor::Tensor({n, 2});
  labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t label = static_cast<std::int32_t>(i % 2);
    const float cx = label == 0 ? -2.0f : 2.0f;
    features.at(i, 0) = cx + static_cast<float>(rng.normal()) * 0.5f;
    features.at(i, 1) = static_cast<float>(rng.normal()) * 0.5f;
    labels[i] = label;
  }
}

double train_epochs(Sequential& model, SgdOptimizer& opt,
                    const tensor::Tensor& features,
                    std::span<const std::int32_t> labels, int steps) {
  double last_loss = 0.0;
  tensor::Tensor grad_logits;
  for (int s = 0; s < steps; ++s) {
    model.zero_grad();
    const tensor::Tensor& logits = model.forward(features);
    if (grad_logits.shape() != logits.shape()) {
      grad_logits = tensor::Tensor(logits.shape());
    }
    const LossResult result =
        softmax_cross_entropy(logits, labels, grad_logits);
    model.backward(features, grad_logits);
    opt.step(model);
    last_loss = result.loss;
  }
  return last_loss;
}

TEST(Training, LearnsLinearlySeparableBlobs) {
  util::Rng rng(5);
  tensor::Tensor features;
  std::vector<std::int32_t> labels;
  make_blobs(rng, 200, features, labels);

  Sequential model = make_softmax_regression(2, 2);
  initialize(model, rng);
  SgdOptimizer opt({0.5f, 0.0f, 0.0f});

  const tensor::Tensor& logits0 = model.forward(features);
  const double initial_acc =
      softmax_cross_entropy_eval(logits0, labels).accuracy;
  train_epochs(model, opt, features, labels, 100);
  const tensor::Tensor& logits1 = model.forward(features);
  const LossResult final_result = softmax_cross_entropy_eval(logits1, labels);

  EXPECT_GT(final_result.accuracy, 0.97);
  EXPECT_GT(final_result.accuracy, initial_acc);
}

TEST(Training, LossDecreasesMonotonicallyOnAverage) {
  util::Rng rng(6);
  tensor::Tensor features;
  std::vector<std::int32_t> labels;
  make_blobs(rng, 100, features, labels);

  Sequential model = make_mlp(2, {8}, 2);
  initialize(model, rng);
  SgdOptimizer opt({0.2f, 0.0f, 0.0f});

  std::vector<double> losses;
  tensor::Tensor grad_logits;
  for (int s = 0; s < 50; ++s) {
    model.zero_grad();
    const tensor::Tensor& logits = model.forward(features);
    if (grad_logits.shape() != logits.shape()) {
      grad_logits = tensor::Tensor(logits.shape());
    }
    losses.push_back(
        softmax_cross_entropy(logits, labels, grad_logits).loss);
    model.backward(features, grad_logits);
    opt.step(model);
  }
  EXPECT_LT(losses.back(), losses.front() * 0.5);
}

TEST(Training, MlpLearnsXorNonlinearity) {
  // XOR pattern: impossible for the linear model, learnable by the MLP.
  tensor::Tensor features({200, 2});
  std::vector<std::int32_t> labels(200);
  util::Rng rng(7);
  for (std::size_t i = 0; i < 200; ++i) {
    const int qx = static_cast<int>(rng.uniform_int(2));
    const int qy = static_cast<int>(rng.uniform_int(2));
    features.at(i, 0) = (qx ? 1.0f : -1.0f) +
                        static_cast<float>(rng.normal()) * 0.2f;
    features.at(i, 1) = (qy ? 1.0f : -1.0f) +
                        static_cast<float>(rng.normal()) * 0.2f;
    labels[i] = qx ^ qy;
  }

  Sequential model = make_mlp(2, {16}, 2);
  initialize(model, rng);
  SgdOptimizer opt({0.3f, 0.0f, 0.0f});
  train_epochs(model, opt, features, labels, 400);

  const tensor::Tensor& logits = model.forward(features);
  EXPECT_GT(softmax_cross_entropy_eval(logits, labels).accuracy, 0.95);
}

TEST(Training, MomentumAcceleratesDescent) {
  util::Rng rng(8);
  tensor::Tensor features;
  std::vector<std::int32_t> labels;
  make_blobs(rng, 100, features, labels);

  Sequential plain = make_mlp(2, {8}, 2);
  initialize(plain, rng);
  Sequential with_momentum = plain.clone();

  SgdOptimizer opt_plain({0.05f, 0.0f, 0.0f});
  SgdOptimizer opt_momentum({0.05f, 0.9f, 0.0f});
  const double loss_plain =
      train_epochs(plain, opt_plain, features, labels, 30);
  const double loss_momentum =
      train_epochs(with_momentum, opt_momentum, features, labels, 30);
  EXPECT_LT(loss_momentum, loss_plain);
}

TEST(Training, WeightDecayShrinksNorm) {
  util::Rng rng(9);
  Sequential decayed = make_mlp(4, {8}, 2);
  initialize(decayed, rng);
  Sequential free = decayed.clone();

  // With zero gradients (no data), weight decay alone shrinks parameters:
  // p *= (1 - lr*wd) = 0.9 per step, so ten steps scale the squared norm
  // by 0.9^20 ≈ 0.12.
  SgdOptimizer opt_decay({0.1f, 0.0f, 1.0f});
  SgdOptimizer opt_free({0.1f, 0.0f, 0.0f});
  for (int i = 0; i < 10; ++i) {
    decayed.zero_grad();
    free.zero_grad();
    opt_decay.step(decayed);
    opt_free.step(free);
  }
  double norm_decayed = 0.0, norm_free = 0.0;
  for (const float p : decayed.parameters_flat()) norm_decayed += p * p;
  for (const float p : free.parameters_flat()) norm_free += p * p;
  EXPECT_LT(norm_decayed, norm_free * 0.5);
}

TEST(Training, OptimizerResetStateClearsMomentum) {
  util::Rng rng(10);
  tensor::Tensor features;
  std::vector<std::int32_t> labels;
  make_blobs(rng, 50, features, labels);

  Sequential model = make_mlp(2, {4}, 2);
  initialize(model, rng);
  SgdOptimizer opt({0.1f, 0.9f, 0.0f});
  train_epochs(model, opt, features, labels, 5);
  opt.reset_state();  // must not crash and must keep training sane
  const double loss = train_epochs(model, opt, features, labels, 20);
  EXPECT_LT(loss, 1.0);
}

/// The seed's full per-layer backward: every layer runs, layer 0's input
/// gradient included, into fresh zeroed buffers. Returns the flat
/// parameter gradients it accumulates from zero.
std::vector<float> full_backward_gradients(Sequential& model,
                                           const tensor::Tensor& input,
                                           const tensor::Tensor& grad_logits) {
  model.zero_grad();
  std::vector<tensor::Tensor> activations(model.num_layers());
  const tensor::Tensor* current = &input;
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    activations[i] =
        tensor::Tensor(model.layer(i).output_shape(current->shape()));
    model.layer(i).forward(*current, activations[i]);
    current = &activations[i];
  }
  tensor::Tensor grad_out = grad_logits;
  for (std::size_t i = model.num_layers(); i-- > 0;) {
    const tensor::Tensor& layer_input = i == 0 ? input : activations[i - 1];
    tensor::Tensor grad_in(layer_input.shape());
    model.layer(i).backward(layer_input, grad_out, grad_in);
    grad_out = std::move(grad_in);
  }
  std::vector<float> grads(model.num_parameters());
  model.get_gradients(grads);
  return grads;
}

/// Sequential::backward's parameter gradients must be bitwise those of the
/// full backward, although it never computes the model-input gradient.
void expect_backward_matches_full(Sequential model, tensor::Shape input_shape,
                                  std::size_t classes, std::uint64_t seed) {
  util::Rng rng(seed);
  initialize(model, rng);
  tensor::Tensor input(input_shape);
  rng.fill_normal(input.data(), 0.0f, 1.0f);
  std::vector<std::int32_t> labels(input_shape[0]);
  for (auto& label : labels) {
    label = static_cast<std::int32_t>(rng.uniform_int(classes));
  }
  model.zero_grad();
  const tensor::Tensor& logits = model.forward(input);
  tensor::Tensor grad_logits(logits.shape());
  softmax_cross_entropy(logits, labels, grad_logits);
  model.backward(input, grad_logits);
  std::vector<float> got(model.num_parameters());
  model.get_gradients(got);

  const std::vector<float> want =
      full_backward_gradients(model, input, grad_logits);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << "parameter " << i << " of " << got.size();
  }
}

TEST(Backward, CompactMlpsMatchFullBackward) {
  expect_backward_matches_full(make_compact_cifar_model(64), {16, 64}, 10, 21);
  expect_backward_matches_full(make_compact_femnist_model(64), {16, 64}, 62,
                               22);
}

TEST(Backward, CifarCnnMatchesFullBackwardOnBothConvPaths) {
  expect_backward_matches_full(make_cifar_cnn(), {2, 3, 32, 32}, 10, 23);
  Sequential direct = make_cifar_cnn();
  for (std::size_t i = 0; i < direct.num_layers(); ++i) {
    if (auto* conv = dynamic_cast<Conv2d*>(&direct.layer(i))) {
      conv->set_algorithm(Conv2dAlgo::kDirect);
    }
  }
  expect_backward_matches_full(std::move(direct), {2, 3, 32, 32}, 10, 23);
}

TEST(Backward, ParameterFreeAndGroupNormFrontsMatchFullBackward) {
  Sequential flatten_first;
  flatten_first.emplace<Flatten>();
  flatten_first.emplace<Linear>(48, 16);
  flatten_first.emplace<ReLU>();
  flatten_first.emplace<Linear>(16, 5);
  expect_backward_matches_full(std::move(flatten_first), {4, 3, 4, 4}, 5, 24);

  Sequential norm_first;
  norm_first.emplace<ReLU>();
  norm_first.emplace<GroupNorm>(2, 4);
  norm_first.emplace<Flatten>();
  norm_first.emplace<Linear>(36, 3);
  expect_backward_matches_full(std::move(norm_first), {3, 4, 3, 3}, 3, 25);
}

TEST(Backward, CompactMlpStepMakesFiveGemmCalls) {
  // Forward: two gemm_nt. Backward: the output layer's dW and dX, then
  // the first layer's dW only — its dX (the model-input gradient) is
  // skipped.
  util::Rng rng(26);
  Sequential model = make_compact_cifar_model(64);
  initialize(model, rng);
  tensor::Tensor features({16, 64});
  rng.fill_normal(features.data(), 0.0f, 1.0f);
  std::vector<std::int32_t> labels(16);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<std::int32_t>(i % 10);
  }
  SgdOptimizer opt({0.1f, 0.0f, 0.0f});
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const std::uint64_t before = obs::snapshot().counter_value("gemm.calls");
  train_epochs(model, opt, features, labels, 1);
  const std::uint64_t after = obs::snapshot().counter_value("gemm.calls");
  obs::set_enabled(was_enabled);
  EXPECT_EQ(after - before, 5u);
}

TEST(Backward, CifarCnnStepMakesNineteenGemmCalls) {
  // Batch 2, one GEMM per image and pass: forward 3 convs x 2 + the
  // Linear's gemm_nt; backward the Linear's dW and dX, then per image each
  // conv's dW and conv2/conv3's dX (conv1's dX, the model-input gradient,
  // is skipped): 7 + 2 + 2 x (3 + 2) = 19.
  util::Rng rng(27);
  Sequential model = make_cifar_cnn();
  initialize(model, rng);
  tensor::Tensor features({2, 3, 32, 32});
  rng.fill_normal(features.data(), 0.0f, 1.0f);
  const std::vector<std::int32_t> labels{3, 7};
  SgdOptimizer opt({0.1f, 0.0f, 0.0f});
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const std::uint64_t before = obs::snapshot().counter_value("gemm.calls");
  train_epochs(model, opt, features, labels, 1);
  const std::uint64_t after = obs::snapshot().counter_value("gemm.calls");
  obs::set_enabled(was_enabled);
  EXPECT_EQ(after - before, 19u);
}

TEST(Loss, GradientIsSoftmaxMinusOnehotOverBatch) {
  tensor::Tensor logits({2, 3});
  logits.at(0, 0) = 1.0f;
  logits.at(0, 1) = 0.0f;
  logits.at(0, 2) = -1.0f;
  logits.at(1, 0) = 0.0f;
  logits.at(1, 1) = 0.0f;
  logits.at(1, 2) = 0.0f;
  const std::vector<std::int32_t> labels{0, 2};
  tensor::Tensor grad({2, 3});
  softmax_cross_entropy(logits, labels, grad);

  // Row sums of the gradient are zero (softmax sums to 1, one-hot to 1).
  for (std::size_t r = 0; r < 2; ++r) {
    float sum = 0.0f;
    for (std::size_t c = 0; c < 3; ++c) sum += grad.at(r, c);
    EXPECT_NEAR(sum, 0.0f, 1e-6f);
  }
  // Second row is uniform softmax (1/3 each): grad = (1/3 - onehot)/B.
  EXPECT_NEAR(grad.at(1, 0), (1.0f / 3.0f) / 2.0f, 1e-6f);
  EXPECT_NEAR(grad.at(1, 2), (1.0f / 3.0f - 1.0f) / 2.0f, 1e-6f);
}

TEST(Loss, EvalMatchesTrainPath) {
  util::Rng rng(11);
  tensor::Tensor logits({4, 5});
  rng.fill_normal(logits.data(), 0.0f, 2.0f);
  std::vector<std::int32_t> labels{0, 4, 2, 1};
  tensor::Tensor grad({4, 5});
  const LossResult train = softmax_cross_entropy(logits, labels, grad);
  const LossResult eval = softmax_cross_entropy_eval(logits, labels);
  EXPECT_DOUBLE_EQ(train.loss, eval.loss);
  EXPECT_DOUBLE_EQ(train.accuracy, eval.accuracy);
}

TEST(Loss, PerfectPredictionLowLoss) {
  tensor::Tensor logits({1, 2});
  logits.at(0, 0) = 20.0f;
  logits.at(0, 1) = -20.0f;
  const std::vector<std::int32_t> labels{0};
  const LossResult result = softmax_cross_entropy_eval(logits, labels);
  EXPECT_LT(result.loss, 1e-6);
  EXPECT_DOUBLE_EQ(result.accuracy, 1.0);
}

}  // namespace
}  // namespace skiptrain::nn
