#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/groupnorm.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/model_zoo.hpp"
#include "nn/pool.hpp"
#include "nn/sequential.hpp"
#include "obs/registry.hpp"
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

/// One max-pool routing oracle: an input, the window, and per output
/// element the flat input index its maximum (and its gradient) comes from.
struct PoolOracle {
  const char* label;
  Shape shape;
  std::size_t window;
  std::vector<float> input;
  std::vector<std::size_t> routes;
};

/// The route of every output element, read off a backward pass whose
/// output gradients are distinct and nonzero (windows never overlap).
std::vector<std::size_t> routes_of(MaxPool2d& pool, const Tensor& input,
                                   const Tensor& output) {
  Tensor grad_out(output.shape());
  for (std::size_t i = 0; i < grad_out.numel(); ++i) {
    grad_out.at(i) = static_cast<float>(i + 1);
  }
  Tensor grad_in(input.shape());
  pool.backward(input, grad_out, grad_in);
  std::vector<std::size_t> routes(output.numel(), input.numel());
  for (std::size_t j = 0; j < grad_in.numel(); ++j) {
    if (grad_in.at(j) != 0.0f) {
      routes[static_cast<std::size_t>(grad_in.at(j)) - 1] = j;
    }
  }
  return routes;
}

/// Checks forward and backward against `oracle`: each output is the input
/// at its route, bit for bit (NaN and the sign of zero included), and the
/// input gradient is zero plus each output gradient added at its route.
/// The second pass's output gradients include -0.0, so a skipped `+=`
/// (0 + -0 is +0) shows in the bits too.
void expect_routes(const PoolOracle& oracle) {
  SCOPED_TRACE(oracle.label);
  MaxPool2d pool(oracle.window);
  Tensor input(oracle.shape);
  ASSERT_EQ(input.numel(), oracle.input.size());
  std::copy(oracle.input.begin(), oracle.input.end(), input.data().begin());
  Tensor output(pool.output_shape(oracle.shape));
  pool.forward(input, output);

  const std::vector<std::size_t> routes = routes_of(pool, input, output);
  std::string actual;
  for (const std::size_t r : routes) actual += std::to_string(r) + ", ";
  ASSERT_EQ(routes, oracle.routes) << "actual routes: {" << actual << "}";

  Tensor grad_out(output.shape());
  for (std::size_t i = 0; i < grad_out.numel(); ++i) {
    grad_out.at(i) = i == 0 ? -0.0f : static_cast<float>(i) * 0.5f;
  }
  Tensor grad_in(oracle.shape);
  grad_in.fill(7.0f);  // the layer must overwrite, not accumulate
  pool.backward(input, grad_out, grad_in);

  std::vector<float> want(input.numel(), 0.0f);
  for (std::size_t i = 0; i < output.numel(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(output.at(i)),
              std::bit_cast<std::uint32_t>(input.at(routes[i])))
        << "output " << i;
    want[routes[i]] += grad_out.at(i);
  }
  for (std::size_t j = 0; j < want.size(); ++j) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(grad_in.at(j)),
              std::bit_cast<std::uint32_t>(want[j]))
        << "grad_input " << j;
  }
}

std::vector<float> small_integers(std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> values(count);
  for (float& v : values) {
    v = static_cast<float>(rng.uniform_int(5)) - 2.0f;  // {-2..2}: many ties
  }
  return values;
}

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

// Generated from the argmax-caching implementation (strict `>`, window
// origin first, row-major scan); any rewrite of the routing must keep them.
TEST(MaxPoolTest, RoutingOracles) {
  const std::vector<PoolOracle> oracles = {
      {"ties", {1, 1, 4, 4}, 2,
       {1, 7, 2, 2,  //
        7, 3, 2, 2,  //
        0, 5, -1, 4,  //
        5, 5, 4, -1},
       {1, 2, 9, 11}},
      {"all-equal", {1, 2, 2, 4}, 2,
       {3, 3, -1, -1,  //
        3, 3, -1, -1,  //
        0, 0, 8, 8,  //
        0, 0, 8, 8},
       {0, 2, 8, 10}},
      {"signed-zeros", {1, 1, 2, 6}, 2,
       {-0.0f, 0.0f, 0.0f, -0.0f, -0.0f, -0.0f,  //
        0.0f, 0.0f, -0.0f, -0.0f, 0.0f, -0.0f},
       {0, 2, 4}},
      {"nan", {1, 1, 4, 4}, 2,
       {kNaN, 1, 1, kNaN,  //
        2, 3, 3, 2,  //
        5, 4, 6, kNaN,  //
        kNaN, 5, kNaN, 6},
       {0, 6, 8, 10}},
      {"batch-channels", {2, 3, 5, 5}, 2, small_integers(150, 71),
       {0, 3, 11, 18, 30, 28, 36, 38, 50, 53, 66, 63,  //
        80, 78, 91, 87, 100, 103, 110, 113, 130, 132, 135, 142}},
      {"window3", {2, 2, 6, 7}, 3, small_integers(168, 72),
       {0, 5, 29, 38, 57, 53, 78, 68, 93, 88, 107, 110, 141, 130, 148, 159}},
  };
  for (const PoolOracle& oracle : oracles) expect_routes(oracle);
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

/// FNV-1a over the bit patterns of `values`: a pin that moves with any bit,
/// the sign of a zero included.
std::uint64_t fnv1a64(std::span<const float> values) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const float v : values) {
    const std::uint32_t bits = std::bit_cast<std::uint32_t>(v);
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

/// Seeded values with exact ties (a coarse grid), +0.0 and -0.0 mixed into
/// a normal draw.
std::vector<float> tied_signed_values(std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> values(count);
  rng.fill_normal(values, 0.0f, 1.0f);
  for (float& v : values) {
    switch (rng.uniform_int(8)) {
      case 0: v = 0.0f; break;
      case 1: v = -0.0f; break;
      case 2:
      case 3: v = std::round(v * 2.0f) * 0.5f; break;
      default: break;
    }
  }
  return values;
}

/// One bit pin of a layer's forward and backward: the hashes of its
/// output, its input gradient and (after two accumulating backward passes,
/// the second without an input gradient) its parameter gradients.
struct LayerPin {
  std::size_t batch;
  std::size_t plane;  // square H = W
  std::uint64_t output;
  std::uint64_t grad_input;
  std::uint64_t grad_params;
};

void expect_layer_pins(Layer& layer, std::size_t channels,
                       const std::vector<LayerPin>& pins) {
  for (const LayerPin& pin : pins) {
    SCOPED_TRACE(layer.name() + " batch " + std::to_string(pin.batch) +
                 " plane " + std::to_string(pin.plane));
    const Shape shape{pin.batch, channels, pin.plane, pin.plane};
    const std::uint64_t seed = pin.batch * 1000 + pin.plane * 10 + channels;
    Tensor input(shape);
    const std::vector<float> x = tied_signed_values(input.numel(), seed);
    std::copy(x.begin(), x.end(), input.data().begin());
    const std::span<float> params = layer.parameters();
    if (!params.empty()) {
      const std::vector<float> p = tied_signed_values(params.size(), seed + 1);
      std::copy(p.begin(), p.end(), params.begin());
      std::fill(layer.gradients().begin(), layer.gradients().end(), 0.0f);
    }
    Tensor output(layer.output_shape(shape));
    layer.forward(input, output);

    Tensor grad_out(output.shape());
    const std::vector<float> g = tied_signed_values(grad_out.numel(), seed + 2);
    std::copy(g.begin(), g.end(), grad_out.data().begin());
    for (std::size_t i = 0; i < grad_out.numel(); i += 5) {
      grad_out.at(i) = -0.0f;
    }
    Tensor grad_in(shape);
    grad_in.fill(7.0f);  // the layer must overwrite, not accumulate
    layer.backward(input, grad_out, grad_in);
    Tensor no_input;
    if (!params.empty()) layer.backward(input, grad_out, no_input);

    const std::uint64_t got_output = fnv1a64(output.data());
    const std::uint64_t got_grad_input = fnv1a64(grad_in.data());
    const std::uint64_t got_grad_params = fnv1a64(layer.gradients());
    EXPECT_EQ(got_output, pin.output) << std::hex << "output 0x" << got_output;
    EXPECT_EQ(got_grad_input, pin.grad_input)
        << std::hex << "grad_input 0x" << got_grad_input;
    EXPECT_EQ(got_grad_params, pin.grad_params)
        << std::hex << "grad_params 0x" << got_grad_params;
  }
}

// Generated from the per-(sample, group) scalar GroupNorm and the
// per-window argmax MaxPool; any rewrite of either must keep every bit.
TEST(LayerBitPins, GroupNorm2x32) {
  GroupNorm gn(2, 32);
  expect_layer_pins(gn, 32,
                    {{1, 7,
                      0xaa65abbf9699433f, 0x78e7b5493378abe7, 0x931c88b395a58d9f},
                     {3, 7,
                      0xfca3210bf0efb09e, 0xeac2e6054493d0b0, 0x7efd9804aa75ee62},
                     {8, 7,
                      0x7b0729f889092cc6, 0x39bfbf4bd8e4e6a0, 0xd9a0c747350c1777},
                     {1, 16,
                      0x3654b629cefe77f8, 0xb6edcb2b89779a32, 0xcbd4c5adbf6287c3},
                     {3, 16,
                      0xfcff61ed13ee2c7b, 0xfe0cf20c24c9de24, 0xd45587090f829eb0},
                     {8, 16,
                      0x7a0745ca0e118a68, 0xd3474dc9d7fdb381, 0xd1a5030f4a390741},
                     {3, 32,
                      0x2a78661e0b366a4a, 0x8c4b8fcd4049f801, 0x68b5ff6d889628a9}});
}

TEST(LayerBitPins, GroupNorm2x64) {
  GroupNorm gn(2, 64);
  expect_layer_pins(gn, 64,
                    {{1, 7,
                      0xd55d5db151ef423a, 0xad7ffd319f07d3d2, 0xc1ae331238f47439},
                     {3, 7,
                      0x3fd47f6106a4d91a, 0xc7eb68e8e2bfdb11, 0xc7a4f35b358b4c4b},
                     {8, 7,
                      0x59c983aa555eb81c, 0x6feb274eb28a6c7b, 0x62f783f057aa899f},
                     {1, 8,
                      0x2be3e0d0f63f8930, 0xea60a991fb5c2f8, 0x25a3c70862a06ea5},
                     {3, 8,
                      0xafc6177d788dd945, 0xf2f53dfb22deaf3c, 0xa0370f249172991},
                     {8, 8,
                      0xc21a50cdaba26a83, 0xe396e3f8c180951b, 0x4fa509e4ebfc13a7}});
}

TEST(LayerBitPins, MaxPool2) {
  MaxPool2d pool(2);
  expect_layer_pins(pool, 32,
                    {{1, 7,
                      0x1fe981ffd259cdfc, 0xfca2dfce42884755, 0xcbf29ce484222325},
                     {3, 7,
                      0x6135eb7de4c0a9b0, 0x39ddc0e832c2d3dd, 0xcbf29ce484222325},
                     {8, 7,
                      0x5644e325022c108a, 0xaecc1c67c597408e, 0xcbf29ce484222325},
                     {1, 16,
                      0x1f4db77f866b9434, 0x1a1bce63810ecf6b, 0xcbf29ce484222325},
                     {3, 16,
                      0x4ca785b83274c8fa, 0xff0b91758464cc8a, 0xcbf29ce484222325},
                     {8, 16,
                      0x9715802ff77382bb, 0x56bff3c8e1786a9e, 0xcbf29ce484222325},
                     {3, 32,
                      0xd86d439613895db9, 0x43c166f0fab86ef0, 0xcbf29ce484222325},
                     {3, 9,
                      0xb2f1e4fba907bc7c, 0xa0de88cce97d4fcc, 0xcbf29ce484222325}});
}

/// A normal draw in which about 2 values in `zero_in` are exact zeros,
/// +0.0 and -0.0 alike.
std::vector<float> values_with_zeros(std::size_t count, std::uint64_t seed,
                                     std::uint64_t zero_in) {
  util::Rng rng(seed);
  std::vector<float> values(count);
  rng.fill_normal(values, 0.0f, 1.0f);
  for (float& v : values) {
    const std::uint64_t pick = rng.uniform_int(zero_in);
    if (pick == 0) v = 0.0f;
    if (pick == 1) v = -0.0f;
  }
  return values;
}

/// One bit pin of Linear(in, out) at one batch: the hashes of its output,
/// of dW and db after two accumulating backward passes (the second without
/// an input gradient), and of dX. A first layer (`hidden` false) sees
/// features with a few exact ±0.0 and a ReLU-masked dY, about half +0.0; a
/// later layer sees post-ReLU activations, about half +0.0, and a dense dY
/// with a few ±0.0, as the compact models feed them.
struct LinearPin {
  std::size_t in;
  std::size_t out;
  std::size_t batch;
  bool hidden;
  std::uint64_t output;
  std::uint64_t grad_w;
  std::uint64_t grad_b;
  std::uint64_t grad_input;
};

void expect_linear_pin(const LinearPin& pin) {
  SCOPED_TRACE("Linear(" + std::to_string(pin.in) + "->" +
               std::to_string(pin.out) + ") batch " +
               std::to_string(pin.batch));
  Linear layer(pin.in, pin.out);
  const std::uint64_t seed = pin.batch * 100000 + pin.in * 100 + pin.out;
  const std::vector<float> p =
      tied_signed_values(layer.parameters().size(), seed);
  std::copy(p.begin(), p.end(), layer.parameters().begin());
  std::fill(layer.gradients().begin(), layer.gradients().end(), 0.0f);

  Tensor input({pin.batch, pin.in});
  const std::vector<float> x = values_with_zeros(input.numel(), seed + 1, 32);
  for (std::size_t i = 0; i < x.size(); ++i) {
    input.at(i) = pin.hidden ? (x[i] > 0.0f ? x[i] : 0.0f) : x[i];
  }
  Tensor output({pin.batch, pin.out});
  output.fill(std::numeric_limits<float>::quiet_NaN());  // never read
  layer.forward(input, output);

  Tensor grad_out(output.shape());
  const std::vector<float> g =
      values_with_zeros(grad_out.numel(), seed + 2, 32);
  util::Rng mask(seed + 3);
  for (std::size_t i = 0; i < g.size(); ++i) {
    const bool masked = !pin.hidden && mask.uniform_int(2) == 0;
    grad_out.at(i) = masked ? 0.0f : g[i];
  }
  Tensor grad_in(input.shape());
  grad_in.fill(7.0f);  // the layer must overwrite, not accumulate
  layer.backward(input, grad_out, grad_in);
  Tensor no_input;
  layer.backward(input, grad_out, no_input);

  const std::span<const float> grads = layer.gradients();
  const std::size_t weights = pin.in * pin.out;
  const std::uint64_t got_output = fnv1a64(output.data());
  const std::uint64_t got_grad_w = fnv1a64(grads.first(weights));
  const std::uint64_t got_grad_b = fnv1a64(grads.subspan(weights));
  const std::uint64_t got_grad_input = fnv1a64(grad_in.data());
  EXPECT_EQ(got_output, pin.output) << std::hex << "output 0x" << got_output;
  EXPECT_EQ(got_grad_w, pin.grad_w) << std::hex << "grad_w 0x" << got_grad_w;
  EXPECT_EQ(got_grad_b, pin.grad_b) << std::hex << "grad_b 0x" << got_grad_b;
  EXPECT_EQ(got_grad_input, pin.grad_input)
      << std::hex << "grad_input 0x" << got_grad_input;
}

// The compact MLPs' layers (64->48->62 FEMNIST, 64->32->10 CIFAR) and
// GN-LeNet's last one, at batches that send their GEMMs down the row, the
// blocked and the reference paths; generated before the Linear epilogues
// and the gemm_nt_rows pack moved, and any rewrite must keep every bit.
TEST(LayerBitPins, Linear) {
  const std::vector<LinearPin> pins = {
      {64, 48, 4, false,
       0x20af7e73fe676693, 0xf7252a5ef74cb2a9, 0x66bae35f518fea13,
       0x5fbc2a261c95cdb5},
      {64, 48, 16, false,
       0x6091751fde934501, 0xc0ae8aa29978e6, 0xe01ac6196eefb4f7,
       0x758cc6eed665d696},
      {64, 48, 88, false,
       0x5c52361e4baf32cb, 0x44fae4cae1c8ea5c, 0xb9052df1533e364c,
       0x76a5bbff3d8295f1},
      {64, 48, 256, false,
       0xb1a71a3365b0720b, 0x27f338acba746f2c, 0xdbe78a507747518a,
       0x7d63b6765254199e},
      {48, 62, 4, true,
       0x573564629e095c42, 0x15f51dfd4bce3564, 0x8033d2f7fdaa1e06,
       0x2ae320761a6b0f76},
      {48, 62, 16, true,
       0x6fe0962cc80068ff, 0x301960667eefbe, 0x74976b112839ce83,
       0xe4eaea095aaea5d5},
      {48, 62, 88, true,
       0x40c6ab265792ebf4, 0x8796a134296643d7, 0x5c1f20d6bf513b56,
       0x184db80320e2e79c},
      {48, 62, 256, true,
       0x65050734210ff708, 0xb6d8796b863f32bd, 0x527babbe2a7a6b8,
       0x2db8a95dab51387f},
      {64, 32, 4, false,
       0xab5cbb56e15da284, 0xba165fb9357ad772, 0xcc656bfe05d224,
       0x188dc94b6763b92e},
      {64, 32, 16, false,
       0xc4c96735bbbc0ed, 0x6c047403c9a28eca, 0xad61dda6adddd909,
       0x10763d02f3a62a08},
      {64, 32, 88, false,
       0xc7e23de5e2ec3d06, 0xc5f2502395fba091, 0xe235fa3ba5b23f2b,
       0xbd8d69fb40318d81},
      {64, 32, 256, false,
       0xb4fb75b3980cb271, 0x36213d5423e32190, 0xd2e402e267b2668c,
       0xb02fab9299b45e6},
      {32, 10, 4, true,
       0x650dc5bc445c7763, 0x8a55d67bcc1fbefe, 0x6e6fb9588929fde0,
       0xdfd841b10ca99fd3},
      {32, 10, 16, true,
       0x4dc8219215c716ce, 0x7d087c713b9b47b0, 0x9ebf5f486dc4e3b3,
       0xd344c555969be2ef},
      {32, 10, 88, true,
       0x43beb7b8950a113f, 0x4cbb4bae71445b7d, 0x4fbf6abe30314ca8,
       0x54aead7037a9d16b},
      {32, 10, 256, true,
       0x6cf6e7b444b84ea2, 0x547bedfa15223d07, 0x747a1da056a48926,
       0xee9698e8edfad166},
      {1024, 10, 4, true,
       0x63b5e28c6d629626, 0x5ed990cd802398a5, 0x7b4b0f97ce089a52,
       0x478adac715751cab},
      {1024, 10, 16, true,
       0xf5bb12438f80aee6, 0xaa59f88eb12cf4f2, 0xda092a32e239c956,
       0xb7f24d853274bce8},
      {1024, 10, 88, true,
       0xedc9613cb5347269, 0x73f6269324d84ad1, 0x35a4efabf63304b4,
       0x919cc6be69e6365d},
      {1024, 10, 256, true,
       0x62df57fc4bc3d86e, 0x6a068cccbb3f46fe, 0x7051fb15d7cf946d,
       0x66370ffc8c5cf83e},
  };
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const obs::Snapshot before = obs::snapshot();
  for (const LinearPin& pin : pins) expect_linear_pin(pin);
  const obs::Snapshot after = obs::snapshot();
  obs::set_enabled(was_enabled);
  const auto delta = [&](const char* name) {
    return after.counter_value(name) - before.counter_value(name);
  };
  // Every GEMM family runs under the pins.
  const std::uint64_t rows = delta("gemm.rows_calls");
  const std::uint64_t ref = delta("gemm.ref_calls");
  EXPECT_GT(rows, 0u);
  EXPECT_GT(ref, 0u);
  EXPECT_GT(delta("gemm.calls"), rows + ref);
}

/// ReLU's forward and backward over tied ±0.0, NaN of both signs, ±inf and
/// denormals, at lengths with and without a partial vector.
TEST(LayerBitPins, ReLU) {
  struct Pin {
    std::size_t count;
    std::uint64_t forward;
    std::uint64_t backward;
  };
  const std::vector<Pin> pins = {
      {5, 0xf655176d43ad960d, 0x3f6e169af9e7608a},
      {8, 0xf0630d9b607c4fdd, 0xba050ee66ace369d},
      {37, 0xb14a8902f63551f2, 0x84a615f22cc0e8b4},
      {16 * 48, 0xa1f84ea79e5248c3, 0x7c8c715956b89c9d},
      {88 * 32 + 3, 0x5ffae00737bc3b02, 0x7d4a77d0a1d748ec},
  };
  constexpr float kSpecial[] = {std::numeric_limits<float>::quiet_NaN(),
                                -std::numeric_limits<float>::quiet_NaN(),
                                std::numeric_limits<float>::infinity(),
                                -std::numeric_limits<float>::infinity(),
                                std::numeric_limits<float>::denorm_min(),
                                -1e-40f,
                                0.0f,
                                -0.0f};
  for (const Pin& pin : pins) {
    SCOPED_TRACE("ReLU count " + std::to_string(pin.count));
    Tensor input({1, pin.count});
    Tensor grad_out({1, pin.count});
    const std::vector<float> x = tied_signed_values(pin.count, pin.count);
    const std::vector<float> g = tied_signed_values(pin.count, pin.count + 1);
    for (std::size_t i = 0; i < pin.count; ++i) {
      input.at(i) = i % 3 == 0 ? kSpecial[(i / 3) % 8] : x[i];
      grad_out.at(i) = i % 7 == 0 ? kSpecial[(i / 7 + 3) % 8] : g[i];
    }
    ReLU relu;
    Tensor output(input.shape());
    output.fill(7.0f);
    relu.forward(input, output);
    Tensor grad_in(input.shape());
    grad_in.fill(7.0f);
    relu.backward(input, grad_out, grad_in);
    const std::uint64_t got_forward = fnv1a64(output.data());
    const std::uint64_t got_backward = fnv1a64(grad_in.data());
    EXPECT_EQ(got_forward, pin.forward)
        << std::hex << "forward 0x" << got_forward;
    EXPECT_EQ(got_backward, pin.backward)
        << std::hex << "backward 0x" << got_backward;
  }
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
    EXPECT_EQ(buffers.size(), model.num_layers() + 2);  // + backward slots
    EXPECT_EQ(&buffered, &buffers[model.num_layers() - 1]);
    EXPECT_EQ(buffered.shape(), plain.shape());
    expect_bitwise_equal(buffered.data(), plain.data());
  };
  check(make_compact_cifar_model(64), {16, 64});
  check(make_cifar_cnn(), {2, 3, 32, 32});
}

TEST(SequentialTest, BufferedForwardLeavesActivationsForBackward) {
  // forward -> buffered forward (another batch size) -> backward must give
  // the gradients of forward -> backward: the buffered pass touches none of
  // the activations the backward reads, and layers keep no state of their
  // own (GN-LeNet's max-pool routing and group statistics included).
  const auto check = [](Sequential model, const Shape& input_shape,
                        const Shape& other_shape) {
    util::Rng rng(32);
    initialize(model, rng);
    Tensor input(input_shape);
    rng.fill_normal(input.data(), 0.0f, 1.0f);
    Tensor other(other_shape);
    rng.fill_normal(other.data(), 0.0f, 1.0f);
    std::vector<std::int32_t> labels(input_shape[0]);
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
  };
  check(make_compact_cifar_model(64), {16, 64}, {5, 64});
  check(make_cifar_cnn(), {3, 3, 32, 32}, {2, 3, 32, 32});
}

TEST(SequentialTest, GradientArenaAttachesAndDetaches) {
  // Gradients accumulated in an attached external arena are the model's
  // own, bit for bit; detaching leaves no gradient storage anywhere, and a
  // clone of a detached model owns zeroed gradients again.
  Sequential model = make_cifar_cnn();
  util::Rng rng(33);
  initialize(model, rng);
  Tensor input({2, 3, 32, 32});
  rng.fill_normal(input.data(), 0.0f, 1.0f);
  const std::vector<std::int32_t> labels = {3, 7};
  const auto step = [&](Sequential& m, std::vector<Tensor>& buffers) {
    m.zero_grad();
    const Tensor& logits = m.forward(input, buffers);
    Tensor grad_logits(logits.shape());
    softmax_cross_entropy(logits, labels, grad_logits);
    m.backward(input, grad_logits, buffers);
  };

  std::vector<Tensor> buffers;
  step(model, buffers);
  std::vector<float> want(model.num_parameters());
  model.get_gradients(want);

  std::vector<float> arena(model.num_parameters(), 5.0f);
  model.attach_gradient_arena(arena);
  EXPECT_EQ(model.gradient_arena().data(), arena.data());
  step(model, buffers);
  expect_bitwise_equal(arena, want);

  model.attach_gradient_arena({});
  EXPECT_TRUE(model.gradient_arena().empty());
  for (std::size_t l = 0; l < model.num_layers(); ++l) {
    EXPECT_TRUE(model.layer(l).gradients().empty()) << "layer " << l;
  }
  EXPECT_THROW(model.attach_gradient_arena(std::span<float>(arena).first(3)),
               std::invalid_argument);

  Sequential copy = model.clone();
  ASSERT_EQ(copy.gradient_arena().size(), copy.num_parameters());
  EXPECT_TRUE(std::all_of(copy.gradient_arena().begin(),
                          copy.gradient_arena().end(),
                          [](float g) { return g == 0.0f; }));
  std::vector<Tensor> copy_buffers;
  step(copy, copy_buffers);
  std::vector<float> got(copy.num_parameters());
  copy.get_gradients(got);
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
