#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/groupnorm.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/model_zoo.hpp"
#include "nn/pool.hpp"
#include "nn/sequential.hpp"
#include "util/rng.hpp"

namespace skiptrain::nn {
namespace {

TEST(Linear, ForwardMatchesManualComputation) {
  Linear layer(2, 3);
  // W = [[1,2],[3,4],[5,6]], b = [0.5, -0.5, 0]
  auto w = layer.weights();
  for (std::size_t i = 0; i < 6; ++i) w[i] = static_cast<float>(i + 1);
  auto b = layer.bias();
  b[0] = 0.5f;
  b[1] = -0.5f;
  b[2] = 0.0f;

  Tensor input({1, 2});
  input.at(0) = 1.0f;
  input.at(1) = 2.0f;
  Tensor output({1, 3});
  layer.forward(input, output);
  EXPECT_FLOAT_EQ(output.at(0), 1.0f + 4.0f + 0.5f);   // 1*1+2*2+0.5
  EXPECT_FLOAT_EQ(output.at(1), 3.0f + 8.0f - 0.5f);   // 1*3+2*4-0.5
  EXPECT_FLOAT_EQ(output.at(2), 5.0f + 12.0f + 0.0f);  // 1*5+2*6
}

TEST(Linear, ShapeValidation) {
  Linear layer(4, 2);
  EXPECT_EQ(layer.output_shape({8, 4}), (Shape{8, 2}));
  EXPECT_THROW(layer.output_shape({8, 5}), std::invalid_argument);
  EXPECT_THROW(layer.output_shape({8}), std::invalid_argument);
}

TEST(Linear, ParameterCount) {
  Linear layer(10, 7);
  EXPECT_EQ(layer.parameters().size(), 10u * 7u + 7u);
  EXPECT_EQ(layer.gradients().size(), layer.parameters().size());
}

TEST(Linear, CloneIsDeepCopy) {
  Linear layer(2, 2);
  layer.weights()[0] = 5.0f;
  auto copy = layer.clone();
  layer.weights()[0] = 9.0f;
  EXPECT_EQ(copy->parameters()[0], 5.0f);
}

TEST(ReLUTest, ForwardClampsNegatives) {
  ReLU relu;
  Tensor input({1, 4});
  input.at(0) = -1.0f;
  input.at(1) = 0.0f;
  input.at(2) = 2.0f;
  input.at(3) = -0.5f;
  Tensor output({1, 4});
  relu.forward(input, output);
  EXPECT_EQ(output.at(0), 0.0f);
  EXPECT_EQ(output.at(1), 0.0f);
  EXPECT_EQ(output.at(2), 2.0f);
  EXPECT_EQ(output.at(3), 0.0f);
}

TEST(ReLUTest, BackwardMasksGradient) {
  ReLU relu;
  Tensor input({1, 2});
  input.at(0) = -1.0f;
  input.at(1) = 3.0f;
  Tensor grad_out({1, 2});
  grad_out.at(0) = 7.0f;
  grad_out.at(1) = 7.0f;
  Tensor grad_in({1, 2});
  relu.backward(input, grad_out, grad_in);
  EXPECT_EQ(grad_in.at(0), 0.0f);
  EXPECT_EQ(grad_in.at(1), 7.0f);
}

TEST(TanhTest, ForwardAndDerivative) {
  Tanh tanh_layer;
  Tensor input({1, 1});
  input.at(0) = 0.5f;
  Tensor output({1, 1});
  tanh_layer.forward(input, output);
  EXPECT_NEAR(output.at(0), std::tanh(0.5f), 1e-6f);

  Tensor grad_out({1, 1});
  grad_out.at(0) = 1.0f;
  Tensor grad_in({1, 1});
  tanh_layer.backward(input, grad_out, grad_in);
  const float t = std::tanh(0.5f);
  EXPECT_NEAR(grad_in.at(0), 1.0f - t * t, 1e-6f);
}

TEST(Conv2dTest, OutputShapes) {
  Conv2d same(3, 8, 5, 1, 2);
  EXPECT_EQ(same.output_shape({2, 3, 32, 32}), (Shape{2, 8, 32, 32}));
  Conv2d valid(1, 4, 3);
  EXPECT_EQ(valid.output_shape({1, 1, 10, 10}), (Shape{1, 4, 8, 8}));
  Conv2d strided(1, 2, 3, 2, 1);
  EXPECT_EQ(strided.output_shape({1, 1, 9, 9}), (Shape{1, 2, 5, 5}));
  EXPECT_THROW(valid.output_shape({1, 2, 10, 10}), std::invalid_argument);
}

TEST(Conv2dTest, IdentityKernelPassesThrough) {
  // 1x1 kernel with weight 1, bias 0 == identity on a single channel.
  Conv2d conv(1, 1, 1);
  conv.parameters()[0] = 1.0f;  // weight
  conv.parameters()[1] = 0.0f;  // bias
  Tensor input({1, 1, 2, 2});
  for (std::size_t i = 0; i < 4; ++i) input.at(i) = static_cast<float>(i);
  Tensor output({1, 1, 2, 2});
  conv.forward(input, output);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(output.at(i), input.at(i));
}

TEST(Conv2dTest, KnownConvolution) {
  // 2x2 averaging kernel over a 3x3 input, valid padding.
  Conv2d conv(1, 1, 2);
  for (std::size_t i = 0; i < 4; ++i) conv.parameters()[i] = 0.25f;
  conv.parameters()[4] = 0.0f;  // bias
  Tensor input({1, 1, 3, 3});
  for (std::size_t i = 0; i < 9; ++i) input.at(i) = static_cast<float>(i + 1);
  Tensor output({1, 1, 2, 2});
  conv.forward(input, output);
  // windows: {1,2,4,5}=3, {2,3,5,6}=4, {4,5,7,8}=6, {5,6,8,9}=7
  EXPECT_FLOAT_EQ(output.at(0), 3.0f);
  EXPECT_FLOAT_EQ(output.at(1), 4.0f);
  EXPECT_FLOAT_EQ(output.at(2), 6.0f);
  EXPECT_FLOAT_EQ(output.at(3), 7.0f);
}

TEST(Conv2dTest, PaddingContributesZeros) {
  Conv2d conv(1, 1, 3, 1, 1);
  for (std::size_t i = 0; i < 9; ++i) conv.parameters()[i] = 1.0f;
  conv.parameters()[9] = 0.0f;
  Tensor input({1, 1, 2, 2});
  input.fill(1.0f);
  Tensor output({1, 1, 2, 2});
  conv.forward(input, output);
  // Every output sees all four ones (corners of the padded window).
  for (std::size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(output.at(i), 4.0f);
}

TEST(MaxPoolTest, ForwardPicksMaxima) {
  MaxPool2d pool(2);
  Tensor input({1, 1, 4, 4});
  for (std::size_t i = 0; i < 16; ++i) input.at(i) = static_cast<float>(i);
  Tensor output({1, 1, 2, 2});
  pool.forward(input, output);
  EXPECT_EQ(output.at(0), 5.0f);
  EXPECT_EQ(output.at(1), 7.0f);
  EXPECT_EQ(output.at(2), 13.0f);
  EXPECT_EQ(output.at(3), 15.0f);
}

TEST(MaxPoolTest, BackwardRoutesToArgmax) {
  MaxPool2d pool(2);
  Tensor input({1, 1, 2, 2});
  input.at(0) = 1.0f;
  input.at(1) = 9.0f;
  input.at(2) = 3.0f;
  input.at(3) = 2.0f;
  Tensor output({1, 1, 1, 1});
  pool.forward(input, output);
  EXPECT_EQ(output.at(0), 9.0f);

  Tensor grad_out({1, 1, 1, 1});
  grad_out.at(0) = 4.0f;
  Tensor grad_in({1, 1, 2, 2});
  pool.backward(input, grad_out, grad_in);
  EXPECT_EQ(grad_in.at(0), 0.0f);
  EXPECT_EQ(grad_in.at(1), 4.0f);  // the max position
  EXPECT_EQ(grad_in.at(2), 0.0f);
  EXPECT_EQ(grad_in.at(3), 0.0f);
}

TEST(FlattenTest, ReshapesOnly) {
  Flatten flatten;
  EXPECT_EQ(flatten.output_shape({2, 3, 4, 4}), (Shape{2, 48}));
  Tensor input({1, 2, 2, 1});
  for (std::size_t i = 0; i < 4; ++i) input.at(i) = static_cast<float>(i);
  Tensor output({1, 4});
  flatten.forward(input, output);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(output.at(i), input.at(i));
}

TEST(GroupNormTest, NormalizesPerGroup) {
  GroupNorm gn(2, 4);  // gamma=1, beta=0 at init
  Tensor input({1, 4, 2, 2});
  util::Rng rng(3);
  rng.fill_normal(input.data(), 5.0f, 3.0f);
  Tensor output({1, 4, 2, 2});
  gn.forward(input, output);

  // Each group (2 channels x 4 pixels = 8 values) must have mean≈0, var≈1.
  for (std::size_t g = 0; g < 2; ++g) {
    double sum = 0.0, sum_sq = 0.0;
    for (std::size_t i = 0; i < 8; ++i) {
      const double v = output.at(g * 8 + i);
      sum += v;
      sum_sq += v * v;
    }
    EXPECT_NEAR(sum / 8.0, 0.0, 1e-4);
    EXPECT_NEAR(sum_sq / 8.0, 1.0, 1e-2);
  }
}

TEST(GroupNormTest, AffineParamsApply) {
  GroupNorm gn(1, 2);
  auto params = gn.parameters();
  params[0] = 2.0f;  // gamma c0
  params[1] = 2.0f;  // gamma c1
  params[2] = 1.0f;  // beta c0
  params[3] = 1.0f;  // beta c1
  Tensor input({1, 2, 1, 2});
  input.at(0) = -1.0f;
  input.at(1) = 1.0f;
  input.at(2) = -1.0f;
  input.at(3) = 1.0f;
  Tensor output({1, 2, 1, 2});
  gn.forward(input, output);
  // Normalized values are ±1, so outputs are gamma*(±1)+beta = -1 or 3.
  EXPECT_NEAR(output.at(0), -1.0f, 1e-3f);
  EXPECT_NEAR(output.at(1), 3.0f, 1e-3f);
}

TEST(GroupNormTest, InvalidGroupingThrows) {
  EXPECT_THROW(GroupNorm(3, 4), std::invalid_argument);
  EXPECT_THROW(GroupNorm(0, 4), std::invalid_argument);
}

TEST(SequentialTest, ParameterRoundTrip) {
  Sequential model = make_mlp(4, {8}, 3);
  util::Rng rng(1);
  initialize(model, rng);
  std::vector<float> params = model.parameters_flat();
  EXPECT_EQ(params.size(), model.num_parameters());

  Sequential copy = model.clone();
  std::vector<float> copied = copy.parameters_flat();
  EXPECT_EQ(params, copied);

  // set_parameters then get_parameters is the identity.
  for (auto& p : params) p += 1.0f;
  model.set_parameters(params);
  EXPECT_EQ(model.parameters_flat(), params);
}

TEST(SequentialTest, CloneIsIndependent) {
  Sequential model = make_mlp(2, {4}, 2);
  util::Rng rng(2);
  initialize(model, rng);
  Sequential copy = model.clone();
  std::vector<float> params = model.parameters_flat();
  params[0] += 10.0f;
  model.set_parameters(params);
  EXPECT_NE(model.parameters_flat()[0], copy.parameters_flat()[0]);
}

TEST(SequentialTest, ForwardShapesThroughCnn) {
  Sequential model = make_cifar_cnn();
  Tensor input({2, 3, 32, 32});
  const Tensor& logits = model.forward(input);
  EXPECT_EQ(logits.shape(), (Shape{2, 10}));
}

void expect_bitwise_equal(std::span<const float> got,
                          std::span<const float> want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << "element " << i << " of " << got.size();
  }
}

TEST(SequentialTest, BufferedForwardMatchesForwardBitwise) {
  const auto check = [](Sequential model, const Shape& input_shape) {
    util::Rng rng(31);
    initialize(model, rng);
    Tensor input(input_shape);
    rng.fill_normal(input.data(), 0.0f, 1.0f);
    const Tensor plain = model.forward(input);
    std::vector<Tensor> buffers;
    const Tensor& buffered = model.forward(input, buffers);
    EXPECT_EQ(buffers.size(), model.num_layers());
    EXPECT_EQ(&buffered, &buffers.back());
    EXPECT_EQ(buffered.shape(), plain.shape());
    expect_bitwise_equal(buffered.data(), plain.data());
  };
  check(make_compact_cifar_model(64), {16, 64});
  check(make_cifar_cnn(), {2, 3, 32, 32});
}

TEST(SequentialTest, BufferedForwardLeavesActivationsForBackward) {
  // forward -> buffered forward (another batch size) -> backward must give
  // the gradients of forward -> backward: the buffered pass touches none of
  // the activations the backward reads. (The MLP has no layer-side caches;
  // see Sequential::forward.)
  Sequential model = make_compact_cifar_model(64);
  util::Rng rng(32);
  initialize(model, rng);
  Tensor input({16, 64});
  rng.fill_normal(input.data(), 0.0f, 1.0f);
  Tensor other({5, 64});
  rng.fill_normal(other.data(), 0.0f, 1.0f);
  std::vector<std::int32_t> labels(16);
  for (auto& label : labels) {
    label = static_cast<std::int32_t>(rng.uniform_int(10));
  }

  const Tensor logits = model.forward(input);
  Tensor grad_logits(logits.shape());
  softmax_cross_entropy(logits, labels, grad_logits);
  model.zero_grad();
  model.backward(input, grad_logits);
  std::vector<float> want(model.num_parameters());
  model.get_gradients(want);

  model.zero_grad();
  model.forward(input);
  std::vector<Tensor> buffers;
  model.forward(other, buffers);
  model.backward(input, grad_logits);
  std::vector<float> got(model.num_parameters());
  model.get_gradients(got);
  expect_bitwise_equal(got, want);
}

TEST(SequentialTest, EmptyModelThrows) {
  Sequential model;
  Tensor input({1, 4});
  EXPECT_THROW(model.forward(input), std::logic_error);
}

TEST(ModelZoo, PaperParameterCountsExact) {
  // Table 1: |x| = 89834 (CIFAR-10) and 1690046 (FEMNIST).
  EXPECT_EQ(make_cifar_cnn().num_parameters(), kPaperCifarModelSize);
  EXPECT_EQ(make_femnist_cnn().num_parameters(), kPaperFemnistModelSize);
}

TEST(ModelZoo, FemnistCnnShapes) {
  Sequential model = make_femnist_cnn();
  Tensor input({1, 1, 28, 28});
  const Tensor& logits = model.forward(input);
  EXPECT_EQ(logits.shape(), (Shape{1, 62}));
}

TEST(ModelZoo, SoftmaxRegressionAndMlp) {
  EXPECT_EQ(make_softmax_regression(10, 3).num_parameters(), 33u);
  // 4->8->2: 4*8+8 + 8*2+2 = 58
  EXPECT_EQ(make_mlp(4, {8}, 2).num_parameters(), 58u);
}

TEST(InitTest, DeterministicPerSeed) {
  Sequential a = make_mlp(6, {5}, 4);
  Sequential b = make_mlp(6, {5}, 4);
  util::Rng rng_a(9), rng_b(9), rng_c(10);
  initialize(a, rng_a);
  initialize(b, rng_b);
  EXPECT_EQ(a.parameters_flat(), b.parameters_flat());

  Sequential c = make_mlp(6, {5}, 4);
  initialize(c, rng_c);
  EXPECT_NE(a.parameters_flat(), c.parameters_flat());
}

TEST(InitTest, BiasesAreZeroWeightsBounded) {
  Sequential model = make_mlp(100, {}, 10);
  util::Rng rng(4);
  initialize(model, rng);
  auto* linear = dynamic_cast<Linear*>(&model.layer(0));
  ASSERT_NE(linear, nullptr);
  const float bound = std::sqrt(6.0f / 100.0f);
  for (const float w : linear->weights()) {
    EXPECT_GE(w, -bound);
    EXPECT_LE(w, bound);
  }
  for (const float b : linear->bias()) EXPECT_EQ(b, 0.0f);
}

TEST(SequentialTest, SummaryMentionsLayersAndTotal) {
  Sequential model = make_mlp(4, {8}, 3);
  const std::string summary = model.summary();
  EXPECT_NE(summary.find("Linear(4->8)"), std::string::npos);
  EXPECT_NE(summary.find("total parameters"), std::string::npos);
}

}  // namespace
}  // namespace skiptrain::nn
