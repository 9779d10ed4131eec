// Google-benchmark micro benches for the substrate hot paths: GEMM, the
// decentralized aggregation step, a full engine round, topology/mixing
// construction, and evaluation. These quantify what a simulated round
// costs and where the wall-clock goes.
//
// Results are written to BENCH_aggregate.json (override with
// --benchmark_out=...) so CI records the gossip-kernel perf trajectory
// per PR. `--quick` runs the aggregate-phase, large-fleet gossip,
// gossip-form, exchange-codec, int8-encode, CRC32C and wire-frame,
// fleet-checkpoint, scenario/harvest, kernel-layer GEMM, Conv2d,
// GroupNorm, MaxPool, local-step
// (whole and per part), softmax cross-entropy, 16-node full-round, 16-node
// fleet-evaluation and synthetic-build rows at a short min-time — the mode the CI Release job uses; the
// GEMM/Conv/CRC/int8 and Gossip rows feed the bench regression gate
// (tools/check_bench_regression.py).
#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/skiptrain.hpp"
#include "graph/sparse.hpp"
#include "nn/groupnorm.hpp"
#include "nn/im2col.hpp"
#include "nn/pool.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "plane/plane.hpp"
#include "quant/kernels.hpp"

namespace {

using namespace skiptrain;

void BM_GemmNT(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const std::size_t k = 64, n = 32;
  std::vector<float> a(m * k), b(n * k), c(m * n);
  util::Rng rng(1);
  rng.fill_normal(a, 0.0f, 1.0f);
  rng.fill_normal(b, 0.0f, 1.0f);
  for (auto _ : state) {
    tensor::gemm_nt(m, k, n, a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * m * k * n));
}
BENCHMARK(BM_GemmNT)->Arg(16)->Arg(64)->Arg(256);

// ---------------------------------------------------------------------------
// Kernel-layer GEMM grid: the blocked/packed kernels vs the retained seed
// loops (gemm_*_ref), at the shapes the model-zoo layers actually run
// (args are {m, k, n}). Runs under --quick; the CI bench gate compares
// each blocked row against its Ref twin from BENCH_aggregate.json.
//
//   nt {16, 3136, 512}: femnist Linear(3136->512) forward, batch 16
//   nt {16, 64, 32}   : compact CIFAR MLP forward, batch 16
//   nn {16, 512, 3136}: femnist Linear backward dX
//   nn {32, 800, 256} : the shape of GN-LeNet conv2's per-image forward
//                       GEMM (Conv2d packs that GEMM's B panels from the
//                       padded image; this row reads a materialised B)
//   tn {512, 16, 3136}: femnist Linear backward dW
//   tn {32, 256, 800} : the shape of GN-LeNet conv2's per-image dW GEMM
// ---------------------------------------------------------------------------

using GemmFn = void (*)(std::size_t, std::size_t, std::size_t,
                        std::span<const float>, std::span<const float>,
                        std::span<float>, float);

/// Half-zero A operands cycle through this many matrices, each with its
/// own zero mask, as post-ReLU gradients change every training step: one
/// repeated mask would let the branch predictor learn the reference loop's
/// skip branch and flatter it.
constexpr std::size_t kZeroMaskPool = 64;

template <GemmFn kGemm, bool kHalfZeroA = false>
void BM_GemmShape(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  const std::size_t pool = kHalfZeroA ? kZeroMaskPool : 1;
  std::vector<float> a(pool * m * k), b(k * n);  // same extent for every layout
  std::vector<float> c(m * n);
  util::Rng rng(12);
  rng.fill_normal(a, 0.0f, 1.0f);
  rng.fill_normal(b, 0.0f, 1.0f);
  if (kHalfZeroA) {
    for (float& v : a) v = rng.bernoulli(0.5) ? 0.0f : v;
  }
  std::size_t next = 0;
  for (auto _ : state) {
    kGemm(m, k, n, std::span<const float>(a).subspan(next * m * k, m * k), b,
          c, 0.0f);
    benchmark::DoNotOptimize(c.data());
    next = next + 1 == pool ? 0 : next + 1;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * m * k * n));
}

void GemmNTShapes(benchmark::internal::Benchmark* bench) {
  bench->Args({16, 3136, 512})->Args({16, 64, 32});
}
void GemmNNShapes(benchmark::internal::Benchmark* bench) {
  bench->Args({16, 512, 3136})->Args({32, 800, 256});
}
void GemmTNShapes(benchmark::internal::Benchmark* bench) {
  bench->Args({512, 16, 3136})->Args({32, 256, 800});
}

BENCHMARK(BM_GemmShape<tensor::gemm_nt>)
    ->Name("BM_GemmNTBlocked")
    ->Apply(GemmNTShapes);
BENCHMARK(BM_GemmShape<tensor::gemm_nt_ref>)
    ->Name("BM_GemmNTRef")
    ->Apply(GemmNTShapes);
BENCHMARK(BM_GemmShape<tensor::gemm_nn>)
    ->Name("BM_GemmNNBlocked")
    ->Apply(GemmNNShapes);
BENCHMARK(BM_GemmShape<tensor::gemm_nn_ref>)
    ->Name("BM_GemmNNRef")
    ->Apply(GemmNNShapes);
BENCHMARK(BM_GemmShape<tensor::gemm_tn>)
    ->Name("BM_GemmTNBlocked")
    ->Apply(GemmTNShapes);
BENCHMARK(BM_GemmShape<tensor::gemm_tn_ref>)
    ->Name("BM_GemmTNRef")
    ->Apply(GemmTNShapes);

// Compact-MLP backward shapes with A half exact zeros, as behind a ReLU,
// a fresh zero mask per call (kZeroMaskPool): the register-row kernel
// gemm_nn / gemm_tn dispatch such a shape to, the blocked kernel (nearly
// every A sliver on the blend microkernel) and the reference loop. Runs
// under --quick.
//
//   tn {32, 16, 64}: compact CIFAR Linear(64->32) backward dW, batch 16
//   tn {48, 16, 64}: compact FEMNIST Linear(64->48) backward dW
//   nn {16, 62, 48}: compact FEMNIST Linear(48->62) backward dX shape
void GemmSparseTNShapes(benchmark::internal::Benchmark* bench) {
  bench->Args({32, 16, 64})->Args({48, 16, 64});
}

BENCHMARK(BM_GemmShape<tensor::gemm_tn_rows, true>)
    ->Name("BM_GemmTNSparseRows")
    ->Apply(GemmSparseTNShapes);
BENCHMARK(BM_GemmShape<tensor::gemm_tn_blocked, true>)
    ->Name("BM_GemmTNSparseBlocked")
    ->Apply(GemmSparseTNShapes);
BENCHMARK(BM_GemmShape<tensor::gemm_tn_ref, true>)
    ->Name("BM_GemmTNSparseRef")
    ->Apply(GemmSparseTNShapes);
BENCHMARK(BM_GemmShape<tensor::gemm_nn_rows, true>)
    ->Name("BM_GemmNNSparseRows")
    ->Args({16, 62, 48});
BENCHMARK(BM_GemmShape<tensor::gemm_nn_blocked, true>)
    ->Name("BM_GemmNNSparseBlocked")
    ->Args({16, 62, 48});
BENCHMARK(BM_GemmShape<tensor::gemm_nn_ref, true>)
    ->Name("BM_GemmNNSparseRef")
    ->Args({16, 62, 48});

// Every other GEMM the compact-MLP workloads run, batch 16 for a training
// step and 200 for an evaluation batch: the dispatched entry point (what
// the sweeps execute), the register-row kernel called directly and the
// reference loop. The dense-A backward shapes take a softmax gradient.
// Runs under --quick.
//
//   nt {16, 64, 48}, {16, 48, 62}: FEMNIST MLP forward, both layers
//   nt {16, 64, 32}, {16, 32, 10}: CIFAR MLP forward, both layers
//   nt {200, 64, 32}, {200, 32, 10}, {200, 64, 48}, {200, 48, 62}: eval
//   tn {62, 16, 48}: FEMNIST Linear(48->62) backward dW
//   nn {16, 62, 48}: FEMNIST Linear(48->62) backward dX
void GemmMlpNTShapes(benchmark::internal::Benchmark* bench) {
  bench->Args({16, 64, 48})->Args({16, 48, 62})->Args({16, 64, 32});
  bench->Args({16, 32, 10})->Args({200, 64, 32})->Args({200, 32, 10});
  bench->Args({200, 64, 48})->Args({200, 48, 62});
}

BENCHMARK(BM_GemmShape<tensor::gemm_nt>)
    ->Name("BM_GemmNTMlp")
    ->Apply(GemmMlpNTShapes);
BENCHMARK(BM_GemmShape<tensor::gemm_nt_rows>)
    ->Name("BM_GemmNTMlpRows")
    ->Apply(GemmMlpNTShapes);
BENCHMARK(BM_GemmShape<tensor::gemm_nt_ref>)
    ->Name("BM_GemmNTMlpRef")
    ->Apply(GemmMlpNTShapes);
BENCHMARK(BM_GemmShape<tensor::gemm_tn>)
    ->Name("BM_GemmTNMlp")
    ->Args({62, 16, 48});
BENCHMARK(BM_GemmShape<tensor::gemm_tn_ref>)
    ->Name("BM_GemmTNMlpRef")
    ->Args({62, 16, 48});
BENCHMARK(BM_GemmShape<tensor::gemm_nn>)
    ->Name("BM_GemmNNMlp")
    ->Args({16, 62, 48});
BENCHMARK(BM_GemmShape<tensor::gemm_nn_ref>)
    ->Name("BM_GemmNNMlpRef")
    ->Args({16, 62, 48});

// GN-LeNet conv1's weight-gradient GEMM, 32 x 1024 x 75 per image: the
// output-gradient planes times the position-major patch matrix of the
// zero-padded 3 x 32 x 32 image, read through offset tables as Conv2d
// reads it. n = 75 leaves a 3-column edge sliver beside nine whole ones.
// BM_GemmNNRef/32/1024/75 is the seed loop over the materialised patch
// matrix; the CI bench gate holds the ratio, so edge tiles that fall back
// to a slow path show. Runs under --quick.
void BM_GemmNNIndexedConv1Dw(benchmark::State& state) {
  nn::ConvGeometry g{};
  g.in_c = 3;
  g.h = g.w = 32;
  g.k = 5;
  g.pad = 2;
  g.oh = g.ow = 32;
  std::vector<float> image(g.in_c * g.h * g.w);
  std::vector<float> padded(g.in_c * g.padded_h() * g.padded_w());
  std::vector<float> grad(32 * g.out_hw()), dw(32 * g.patch());
  util::Rng rng(14);
  rng.fill_normal(image, 0.0f, 1.0f);
  rng.fill_normal(grad, 0.0f, 1.0f);
  nn::stage_planes(g.in_c, g.h, g.w, image.data(),
                   static_cast<std::ptrdiff_t>(g.pad), 1, g.padded_h(),
                   g.padded_w(), padded.data());
  std::vector<std::size_t> kappa(g.patch()), pos(g.out_hw());
  nn::patch_offsets(g, kappa.data(), pos.data());
  const tensor::IndexedB b{padded.data(), pos.data(), kappa.data()};
  for (auto _ : state) {
    tensor::gemm_nn_indexed(32, g.out_hw(), g.patch(), grad, b, dw, 0.0f);
    benchmark::DoNotOptimize(dw.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * 32 * g.out_hw() *
                                                    g.patch()));
}
BENCHMARK(BM_GemmNNIndexedConv1Dw)
    ->Name("BM_GemmNNIndexed")
    ->Args({32, 1024, 75});
BENCHMARK(BM_GemmShape<tensor::gemm_nn_ref>)
    ->Name("BM_GemmNNRef")
    ->Args({32, 1024, 75});

// ---------------------------------------------------------------------------
// GroupNorm and 2x2 MaxPool at the shapes GN-LeNet runs them: 32 channels
// of 32 x 32 (after conv1) and of 16 x 16 (after conv2), at the cnn_lenet
// training batch of 8 and the evaluation batch of 32. Args: batch,
// channels, side. Backward includes the input gradient, as every GroupNorm
// and MaxPool in GN-LeNet computes it. Runs under --quick.
// ---------------------------------------------------------------------------

struct NormPoolBench {
  tensor::Tensor input, output, grad_out, grad_in;

  NormPoolBench(const benchmark::State& state, nn::Layer& layer)
      : input({static_cast<std::size_t>(state.range(0)),
               static_cast<std::size_t>(state.range(1)),
               static_cast<std::size_t>(state.range(2)),
               static_cast<std::size_t>(state.range(2))}),
        output(layer.output_shape(input.shape())),
        grad_out(output.shape()),
        grad_in(input.shape()) {
    util::Rng rng(15);
    rng.fill_normal(input.data(), 0.0f, 1.0f);
    rng.fill_normal(grad_out.data(), 0.0f, 1.0f);
    layer.forward(input, output);
  }
};

template <bool kBackward>
void run_norm_pool(benchmark::State& state, nn::Layer& layer) {
  NormPoolBench bench(state, layer);
  for (auto _ : state) {
    if (kBackward) {
      layer.backward(bench.input, bench.grad_out, bench.grad_in);
      benchmark::DoNotOptimize(bench.grad_in.raw());
    } else {
      layer.forward(bench.input, bench.output);
      benchmark::DoNotOptimize(bench.output.raw());
    }
    benchmark::ClobberMemory();
  }
}

template <bool kBackward>
void BM_GroupNorm(benchmark::State& state) {
  nn::GroupNorm gn(2, static_cast<std::size_t>(state.range(1)));
  run_norm_pool<kBackward>(state, gn);
}

template <bool kBackward>
void BM_MaxPool(benchmark::State& state) {
  nn::MaxPool2d pool(2);
  run_norm_pool<kBackward>(state, pool);
}

void NormPoolShapes(benchmark::internal::Benchmark* bench) {
  for (const std::int64_t batch : {8, 32}) {
    bench->Args({batch, 32, 32})->Args({batch, 32, 16});
  }
  bench->Unit(benchmark::kMicrosecond);
}
BENCHMARK(BM_GroupNorm<false>)->Name("BM_GroupNormFwd")->Apply(NormPoolShapes);
BENCHMARK(BM_GroupNorm<true>)->Name("BM_GroupNormBwd")->Apply(NormPoolShapes);
BENCHMARK(BM_MaxPool<false>)->Name("BM_MaxPoolFwd")->Apply(NormPoolShapes);
BENCHMARK(BM_MaxPool<true>)->Name("BM_MaxPoolBwd")->Apply(NormPoolShapes);

// ---------------------------------------------------------------------------
// Conv2d forward/backward: implicit im2col + GEMM vs the retained direct
// loop, on the GN-LeNet convs (5x5, pad 2). Args: batch, algorithm and,
// for the backward's three-arg rows, the conv (1..3); the two-arg rows run
// conv2 (32->32, 16x16 input). Batch 8 is the cnn_lenet training batch;
// BM_Conv2dFwd/32/2 runs the evaluator's batch of 32. conv1's backward
// skips the input gradient, as the model's first layer does in training.
// Runs under --quick for the CI bench gate.
// ---------------------------------------------------------------------------

struct ConvShape {
  std::size_t in_c, out_c, side;
};
constexpr ConvShape kLeNetConvs[] = {{3, 32, 32}, {32, 32, 16}, {32, 64, 8}};

struct ConvBench {
  nn::Conv2d conv;
  tensor::Tensor input;
  tensor::Tensor output;
  tensor::Tensor grad_out;
  tensor::Tensor grad_in;

  ConvBench(std::size_t batch, nn::Conv2dAlgo algo, std::size_t layer = 2)
      : conv(kLeNetConvs[layer - 1].in_c, kLeNetConvs[layer - 1].out_c, 5, 1,
             2),
        input({batch, kLeNetConvs[layer - 1].in_c, kLeNetConvs[layer - 1].side,
               kLeNetConvs[layer - 1].side}) {
    conv.set_algorithm(algo);
    util::Rng rng(13);
    rng.fill_normal(conv.parameters(), 0.0f, 0.5f);
    rng.fill_normal(input.data(), 0.0f, 1.0f);
    const auto out_shape = conv.output_shape(input.shape());
    output = tensor::Tensor(out_shape);
    grad_out = tensor::Tensor(out_shape);
    if (layer != 1) grad_in = tensor::Tensor(input.shape());
    rng.fill_normal(grad_out.data(), 0.0f, 1.0f);
    conv.forward(input, output);
  }
};

void BM_Conv2dFwd(benchmark::State& state) {
  ConvBench bench(static_cast<std::size_t>(state.range(0)),
                  static_cast<nn::Conv2dAlgo>(state.range(1)));
  for (auto _ : state) {
    bench.conv.forward(bench.input, bench.output);
    benchmark::DoNotOptimize(bench.output.raw());
  }
  state.SetLabel(state.range(1) == 1 ? "direct" : "im2col");
}

void run_conv_backward(benchmark::State& state, std::size_t layer) {
  ConvBench bench(static_cast<std::size_t>(state.range(0)),
                  static_cast<nn::Conv2dAlgo>(state.range(1)), layer);
  for (auto _ : state) {
    bench.conv.zero_grad();
    bench.conv.backward(bench.input, bench.grad_out, bench.grad_in);
    benchmark::DoNotOptimize(bench.conv.gradients().data());
    benchmark::DoNotOptimize(bench.grad_in.raw());
    benchmark::ClobberMemory();
  }
  state.SetLabel(state.range(1) == 1 ? "direct" : "im2col");
}

void BM_Conv2dBwd(benchmark::State& state) { run_conv_backward(state, 2); }

void BM_Conv2dBwdLayer(benchmark::State& state) {
  run_conv_backward(state, static_cast<std::size_t>(state.range(2)));
}

void ConvAlgoGrid(benchmark::internal::Benchmark* bench) {
  bench->Args({8, static_cast<std::int64_t>(nn::Conv2dAlgo::kIm2col)})
      ->Args({8, static_cast<std::int64_t>(nn::Conv2dAlgo::kDirect)});
}

void ConvLayerGrid(benchmark::internal::Benchmark* bench) {
  for (const std::int64_t layer : {3, 1}) {
    bench->Args({8, static_cast<std::int64_t>(nn::Conv2dAlgo::kIm2col), layer})
        ->Args({8, static_cast<std::int64_t>(nn::Conv2dAlgo::kDirect), layer});
  }
}
BENCHMARK(BM_Conv2dFwd)
    ->Apply(ConvAlgoGrid)
    ->Args({32, static_cast<std::int64_t>(nn::Conv2dAlgo::kIm2col)})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Conv2dBwd)->Apply(ConvAlgoGrid)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Conv2dBwdLayer)
    ->Name("BM_Conv2dBwd")
    ->Apply(ConvLayerGrid)
    ->Unit(benchmark::kMillisecond);

void BM_AggregationStep(benchmark::State& state) {
  // One node's Metropolis-Hastings aggregation over `degree` neighbors
  // with a compact-model-sized parameter vector.
  const auto degree = static_cast<std::size_t>(state.range(0));
  const std::size_t dim = 2410;  // compact CIFAR MLP parameter count
  std::vector<std::vector<float>> neighbors(degree + 1,
                                            std::vector<float>(dim));
  util::Rng rng(2);
  for (auto& v : neighbors) rng.fill_normal(v, 0.0f, 1.0f);
  std::vector<float> out(dim);
  const float w = 1.0f / static_cast<float>(degree + 1);
  for (auto _ : state) {
    std::fill(out.begin(), out.end(), 0.0f);
    for (const auto& neighbor : neighbors) {
      tensor::axpy(w, neighbor, out);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim * (degree + 1)));
}
BENCHMARK(BM_AggregationStep)->Arg(6)->Arg(8)->Arg(10);

// ---------------------------------------------------------------------------
// Aggregate phase: the seed engine's scattered row loop (including its
// get_parameters/set_parameters copies) vs the tiled plane kernel the
// engine now runs. Grid: fleet size x parameter dimension.
// ---------------------------------------------------------------------------

graph::MixingMatrix aggregate_mixing(std::size_t nodes) {
  util::Rng rng(41);
  const auto topology = graph::make_random_regular(nodes, 6, rng);
  return graph::MixingMatrix::metropolis_hastings(topology);
}

void BM_AggregateSeedRowLoop(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  const auto mixing = aggregate_mixing(nodes);

  // Pre-refactor storage model: layer-owned vectors (modelled as one
  // owned vector per node) plus the two per-round snapshot copies.
  std::vector<std::vector<float>> model(nodes, std::vector<float>(dim));
  std::vector<std::vector<float>> half(nodes, std::vector<float>(dim));
  std::vector<std::vector<float>> current(nodes, std::vector<float>(dim));
  util::Rng rng(42);
  for (auto& row : model) rng.fill_normal(row, 0.0f, 1.0f);

  for (auto _ : state) {
    util::parallel_for(0, nodes, [&](std::size_t i) {
      // get_parameters: model -> half snapshot.
      std::copy(model[i].begin(), model[i].end(), half[i].begin());
    });
    util::parallel_for(0, nodes, [&](std::size_t i) {
      auto& out = current[i];
      const auto& mine = half[i];
      const float self_w = mixing.self_weight(i);
      for (std::size_t k = 0; k < out.size(); ++k) out[k] = self_w * mine[k];
      for (const auto& entry : mixing.neighbor_weights(i)) {
        const auto& theirs = half[entry.neighbor];
        const float w = entry.weight;
        for (std::size_t k = 0; k < out.size(); ++k) out[k] += w * theirs[k];
      }
      // set_parameters: aggregated row -> model.
      std::copy(out.begin(), out.end(), model[i].begin());
    });
    benchmark::DoNotOptimize(model.front().data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(nodes * dim * sizeof(float)));
}
BENCHMARK(BM_AggregateSeedRowLoop)
    ->Args({16, 2752})
    ->Args({64, 2752})
    ->Args({16, 100000})
    ->Args({64, 100000})
    ->Unit(benchmark::kMillisecond);

void BM_AggregatePlaneBlocked(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  const auto mixing = aggregate_mixing(nodes);

  plane::ParameterPlane fleet_plane(nodes, dim);
  util::Rng rng(42);
  for (std::size_t i = 0; i < nodes; ++i) {
    rng.fill_normal(fleet_plane.current().row(i), 0.0f, 1.0f);
  }
  for (auto _ : state) {
    // The engine's whole aggregate phase: the tiled kernel (column blocks
    // at these n ≤ 256 shapes, one task at 16 × 2752) + buffer flip (model
    // rows re-attach by pointer swap — nothing to copy).
    plane::apply_mixing(mixing, fleet_plane);
    benchmark::DoNotOptimize(fleet_plane.current().row(0).data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(nodes * dim * sizeof(float)));
}
BENCHMARK(BM_AggregatePlaneBlocked)
    ->Args({16, 2752})
    ->Args({64, 2752})
    ->Args({16, 100000})
    ->Args({64, 100000})
    ->UseRealTime()  // the kernel runs on pool workers, not this thread
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Large-fleet gossip: the tiled kernel (graph::apply_mixing, reached
// through plane::apply_mixing — the engine's path), which runs whole-row
// tiles at these n > 256 shapes, on an implicit k-regular topology over a
// huge-page ParameterPlane. The headline row is
// n = 100k, dim = 1024 — a fleet whose dense adjacency (10^10 entries)
// could never be materialized; topology memory stays O(n·k) and the
// peak_rss_mb counter (getrusage max RSS) documents that the process
// footprint is the two plane buffers + O(n·k) mixing, nothing quadratic.
// Runs under --quick; the regression gate checks the rows exist and warns
// when peak RSS drifts.
// ---------------------------------------------------------------------------

void BM_GossipSharded(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  const std::size_t k = 6;
  const graph::ImplicitKRegular topology(nodes, k, /*seed=*/91);
  const auto mixing = graph::MixingMatrix::metropolis_hastings(topology);
  plane::ParameterPlane fleet_plane(nodes, dim);
  // Deterministic fill, touched in parallel: rng-normal would dominate
  // setup at 10^8 floats, and the values only need to be nonuniform.
  util::parallel_for(0, nodes, [&](std::size_t i) {
    auto row = fleet_plane.current().row(i);
    for (std::size_t j = 0; j < dim; ++j) {
      row[j] = 1e-3f * static_cast<float>((i * 131 + j * 7) % 997);
    }
  });
  // One untimed round faults the back buffer's pages in, so the timed
  // rounds measure steady-state gossip rather than first touch.
  plane::apply_mixing(mixing, fleet_plane);
  for (auto _ : state) {
    plane::apply_mixing(mixing, fleet_plane);
    benchmark::DoNotOptimize(fleet_plane.current().row(0).data());
  }
  // Gossip streams (k + 1) row reads plus 1 row write per node.
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(nodes * dim * sizeof(float) * (k + 2)));
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  state.counters["peak_rss_mb"] = benchmark::Counter(
      static_cast<double>(usage.ru_maxrss) / 1024.0,
      benchmark::Counter::kAvgThreads);
}
BENCHMARK(BM_GossipSharded)
    ->Args({1000, 1024})
    ->Args({10000, 1024})
    ->Args({100000, 1024})
    ->UseRealTime()  // the kernel runs on pool workers, not this thread
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// The gossip kernel's three forms at chaos_256's shape: 256 nodes x 2410
// floats (the compact CIFAR MLP) on a random 6-regular graph, on one
// thread. range(2) picks the form: 0 plain, 1 exact self (received is a
// perturbed copy), 2 difference with about 5% of entries undelivered.
// BM_GossipFormRowLoop is the same-process reference twin: the multi-pass
// row loops the one-pass kernel replaced, on the same 512-float column
// blocks. Both run under --quick; the CI gate holds each form's ratio.
// ---------------------------------------------------------------------------

/// The pre-kernel row loops: plain as a 3-term pass (degree >= 2, as on
/// the 6-regular graph here), 2-term passes and a trailing 1-term pass
/// over the output slice, the exact-self fix as one
/// more pass, the difference form a copy plus one pass per delivered term.
void row_loop_mix(const graph::MixingMatrix& mixing, const float* half,
                  const float* received, float* out, std::size_t dim,
                  const std::uint8_t* delivered) {
  const std::size_t n = mixing.num_nodes();
  const std::size_t block = std::min<std::size_t>(128 * 1024 / n, dim);
  for (std::size_t begin = 0; begin < dim; begin += block) {
    const std::size_t len = std::min(block, dim - begin);
    const auto wire = [&](std::size_t node) {
      return received + node * dim + begin;
    };
    for (std::size_t i = 0; i < n; ++i) {
      float* __restrict__ y = out + i * dim + begin;
      const float* mine = half + i * dim + begin;
      const auto nbrs = mixing.neighbor_weights(i);
      const auto add_difference = [&](float w, const float* a,
                                      const float* b) {
        for (std::size_t k = 0; k < len; ++k) y[k] += w * (a[k] - b[k]);
      };
      if (delivered) {
        std::copy(mine, mine + len, y);
        const std::uint8_t* flags = delivered + mixing.entry_offset(i);
        for (std::size_t e = 0; e < nbrs.size(); ++e) {
          if (flags[e]) {
            add_difference(nbrs[e].weight, wire(nbrs[e].neighbor), mine);
          }
        }
        continue;
      }
      const float self_w = mixing.self_weight(i);
      const float* x0 = wire(i);
      const float* x1 = wire(nbrs[0].neighbor);
      const float* x2 = wire(nbrs[1].neighbor);
      const float a1 = nbrs[0].weight, a2 = nbrs[1].weight;
      for (std::size_t k = 0; k < len; ++k) {
        y[k] = ((self_w * x0[k]) + a1 * x1[k]) + a2 * x2[k];
      }
      std::size_t e = 2;
      for (; e + 2 <= nbrs.size(); e += 2) {
        const float* s1 = wire(nbrs[e].neighbor);
        const float* s2 = wire(nbrs[e + 1].neighbor);
        const float w1 = nbrs[e].weight, w2 = nbrs[e + 1].weight;
        for (std::size_t k = 0; k < len; ++k) {
          y[k] = (y[k] + w1 * s1[k]) + w2 * s2[k];
        }
      }
      if (e < nbrs.size()) {
        const float* s1 = wire(nbrs[e].neighbor);
        const float w1 = nbrs[e].weight;
        for (std::size_t k = 0; k < len; ++k) y[k] += w1 * s1[k];
      }
      if (received != half) add_difference(self_w, mine, wire(i));
    }
  }
}

template <bool kRowLoop>
void BM_GossipFormT(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  const auto form = state.range(2);
  const auto mixing = aggregate_mixing(nodes);
  std::vector<float> half(nodes * dim), out(nodes * dim);
  util::Rng rng(43);
  rng.fill_normal(half, 0.0f, 1.0f);
  std::vector<float> received = half;
  for (float& value : received) value += 0.01f * rng.uniform_float();
  // The plain form is picked by passing x_half itself as the received plane.
  const std::vector<float>& wire = form == 0 ? half : received;
  std::vector<std::uint8_t> delivered(mixing.num_entries());
  for (auto& flag : delivered) flag = rng.bernoulli(0.95) ? 1 : 0;
  std::optional<std::span<const std::uint8_t>> mask;
  if (form == 2) mask = delivered;
  const util::ThreadPool::ScopedForceSerial serial;
  for (auto _ : state) {
    if constexpr (kRowLoop) {
      row_loop_mix(mixing, half.data(), wire.data(), out.data(), dim,
                   mask ? delivered.data() : nullptr);
    } else {
      graph::apply_mixing(mixing, half, wire, out, dim, mask);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(out.size() * sizeof(float)));
}
void GossipFormGrid(benchmark::internal::Benchmark* bench) {
  for (const std::int64_t form : {0, 1, 2}) bench->Args({256, 2410, form});
  bench->Unit(benchmark::kMillisecond);
}
BENCHMARK(BM_GossipFormT<false>)->Name("BM_GossipForm")->Apply(GossipFormGrid);
BENCHMARK(BM_GossipFormT<true>)
    ->Name("BM_GossipFormRowLoop")
    ->Apply(GossipFormGrid);

// ---------------------------------------------------------------------------
// Exchange-codec kernels: encode/decode throughput per codec at compact
// and large row sizes. Runs under --quick, so the codec grid lands in
// BENCH_aggregate.json and codec kernel regressions show in the CI
// artifact alongside the gossip-kernel trajectory.
// ---------------------------------------------------------------------------

void codec_bench_row(std::size_t dim, std::vector<float>& row) {
  row.resize(dim);
  util::Rng rng(10);
  rng.fill_normal(row, 0.0f, 1.0f);
}

void BM_CodecEncode(benchmark::State& state) {
  const auto kind = static_cast<quant::Codec>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  const auto codec = quant::make_codec(kind, 42);
  codec->begin_round(1);
  std::vector<float> row;
  codec_bench_row(dim, row);
  quant::QuantizedRow wire;
  for (auto _ : state) {
    codec->encode(row, wire);
    benchmark::DoNotOptimize(wire.dim);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim * sizeof(float)));
  state.SetLabel(quant::codec_token(kind));
}

void BM_CodecDecode(benchmark::State& state) {
  const auto kind = static_cast<quant::Codec>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  const auto codec = quant::make_codec(kind, 42);
  codec->begin_round(1);
  std::vector<float> row;
  codec_bench_row(dim, row);
  quant::QuantizedRow wire;
  codec->encode(row, wire);
  std::vector<float> decoded(dim);
  for (auto _ : state) {
    codec->decode(wire, decoded);
    benchmark::DoNotOptimize(decoded.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim * sizeof(float)));
  state.SetLabel(quant::codec_token(kind));
}

// dim 2410 is the CIFAR compact model that chaos_256 exchanges.
void RegisterCodecGrid(benchmark::internal::Benchmark* bench) {
  for (const quant::Codec codec : quant::all_codecs()) {
    for (const std::int64_t dim : {2410L, 2752L, 100000L}) {
      bench->Args({static_cast<std::int64_t>(codec), dim});
    }
  }
}
BENCHMARK(BM_CodecEncode)->Apply(RegisterCodecGrid);
BENCHMARK(BM_CodecDecode)->Apply(RegisterCodecGrid);

// The int8 block encode alone, batch kernel against the scalar reference
// it must match bitwise, at the CIFAR compact model's dim. The CI gate
// holds the ratio, so a scan or quantize loop that stops vectorizing
// fails it.
template <auto Encode>
void BM_Int8EncodeRow(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  std::vector<float> row;
  codec_bench_row(dim, row);
  std::vector<std::uint8_t> codes(dim);
  const std::size_t blocks =
      (dim + quant::kInt8BlockValues - 1) / quant::kInt8BlockValues;
  std::vector<float> lo(blocks);
  std::vector<float> scale(blocks);
  for (auto _ : state) {
    Encode(row, codes.data(), lo.data(), scale.data());
    benchmark::DoNotOptimize(codes.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim * sizeof(float)));
}
BENCHMARK(BM_Int8EncodeRow<quant::int8_encode>)
    ->Name("BM_Int8Encode")
    ->Arg(2410);
BENCHMARK(BM_Int8EncodeRow<quant::int8_encode_scalar>)
    ->Name("BM_Int8EncodeScalar")
    ->Arg(2410);

// ---------------------------------------------------------------------------
// Fleet-image checkpoint write/restore throughput (ckpt/fleet_image): the
// plane blob dominates, so bytes/s ~ serialization of n x dim float32.
// Runs under --quick so the CI artifact tracks checkpoint-path
// regressions alongside the gossip and codec kernels.
// ---------------------------------------------------------------------------

struct CheckpointBench {
  data::FederatedData dataset;
  nn::Sequential model;
  graph::Topology topology;
  graph::MixingMatrix mixing;
  core::DpsgdScheduler scheduler;
  energy::Fleet fleet;
  std::unique_ptr<sim::RoundEngine> engine;
  std::string path;

  explicit CheckpointBench(std::size_t nodes)
      : fleet(energy::Fleet::even(nodes, energy::Workload::kCifar10)) {
    data::CifarSynConfig config;
    config.nodes = nodes;
    config.samples_per_node = 8;
    config.test_pool = 10;
    dataset = data::make_cifar_synthetic(config);
    model = nn::make_compact_cifar_model(config.feature_dim);
    util::Rng rng(11);
    nn::initialize(model, rng);
    util::Rng topo_rng(12);
    topology = graph::make_random_regular(nodes, 6, topo_rng);
    mixing = graph::MixingMatrix::metropolis_hastings(topology);
    std::vector<std::size_t> degrees(nodes, 6);
    energy::EnergyAccountant accountant(fleet, energy::CommModel{}, 89834,
                                        std::move(degrees));
    sim::EngineConfig engine_config;
    engine_config.local_steps = 1;
    engine_config.batch_size = 4;
    engine = std::make_unique<sim::RoundEngine>(model, dataset, mixing,
                                                scheduler,
                                                std::move(accountant),
                                                engine_config);
    engine->run_round();
    path = (std::filesystem::temp_directory_path() /
            ("bench_ckpt_" + std::to_string(nodes) + ".sktf"))
               .string();
  }

  std::int64_t plane_bytes() const {
    return static_cast<std::int64_t>(engine->num_nodes() *
                                     engine->parameter_plane().dim() *
                                     sizeof(float));
  }
};

void BM_CheckpointWrite(benchmark::State& state) {
  CheckpointBench bench(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    ckpt::save_fleet_image(*bench.engine, bench.path);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          bench.plane_bytes());
}
BENCHMARK(BM_CheckpointWrite)->Arg(16)->Arg(64)->Arg(256);

void BM_CheckpointRestore(benchmark::State& state) {
  CheckpointBench bench(static_cast<std::size_t>(state.range(0)));
  ckpt::save_fleet_image(*bench.engine, bench.path);
  for (auto _ : state) {
    ckpt::restore_fleet_image(*bench.engine, bench.path);
    benchmark::DoNotOptimize(bench.engine->rounds_executed());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          bench.plane_bytes());
}
BENCHMARK(BM_CheckpointRestore)->Arg(16)->Arg(64)->Arg(256);

// ---------------------------------------------------------------------------
// Scenario-engine kernels (scenario/scenario.hpp): the per-round cost the
// harvest/churn layer adds to every simulated round. BM_HarvestSample is
// the pure counter-based solar draw (two stateless_uniform evaluations +
// a sine); BM_ScenarioRoundStep is the full synchronous begin_round
// (harvest + hysteresis for n nodes); BM_ScenarioTraceStep replays a CSV
// trace series instead of the synthetic sky. All run under --quick so CI
// catches a scenario layer that starts dominating round time.
// ---------------------------------------------------------------------------

scenario::FleetScenario make_scenario_bench(std::size_t nodes,
                                            scenario::HarvestKind kind) {
  scenario::ScenarioConfig config = scenario::make_config("solar");
  if (kind == scenario::HarvestKind::kTrace) {
    // A 48-sample, 4-series in-memory trace: long enough to defeat any
    // single-sample caching, small enough to stay cache-resident (the
    // realistic case — traces are tiny next to the plane).
    std::string csv = "time,node,harvest_mwh,available\n";
    for (int t = 0; t < 48; ++t) {
      for (int node = 0; node < 4; ++node) {
        csv += std::to_string(t) + "," + std::to_string(node) + "," +
               std::to_string(0.25 * ((t + node) % 7)) + "," +
               ((t + node) % 11 == 0 ? "0" : "1") + "\n";
      }
    }
    std::istringstream in(csv);
    config.harvest = scenario::HarvestKind::kTrace;
    config.trace = std::make_shared<const scenario::HarvestTrace>(
        scenario::HarvestTrace::parse_csv(in, "bench"));
  }
  return scenario::FleetScenario(config, nodes, /*seed=*/42,
                                 std::vector<double>(nodes, 25.0));
}

void BM_HarvestSample(benchmark::State& state) {
  const auto fleet =
      make_scenario_bench(64, scenario::HarvestKind::kSolar);
  std::size_t t = 0;
  for (auto _ : state) {
    ++t;
    benchmark::DoNotOptimize(fleet.harvest_sample_mwh(t % 64, t));
  }
}
BENCHMARK(BM_HarvestSample);

void BM_ScenarioRoundStep(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  auto fleet = make_scenario_bench(nodes, scenario::HarvestKind::kSolar);
  std::size_t t = 0;
  for (auto _ : state) {
    fleet.begin_round(++t);
    benchmark::DoNotOptimize(fleet.down_steps_total());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nodes));
}
BENCHMARK(BM_ScenarioRoundStep)->Arg(64)->Arg(256);

void BM_ScenarioTraceStep(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  auto fleet = make_scenario_bench(nodes, scenario::HarvestKind::kTrace);
  std::size_t t = 0;
  for (auto _ : state) {
    fleet.begin_round(++t);
    benchmark::DoNotOptimize(fleet.down_steps_total());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nodes));
}
BENCHMARK(BM_ScenarioTraceStep)->Arg(64)->Arg(256);

// ---------------------------------------------------------------------------
// Fault-layer kernels (fault/frame.hpp, fault/fault.hpp): what the wire
// framing and a fully faulted gossip round cost. BM_CrcFrame measures
// encode_frame + verify_frame (two CRC32C passes over the payload);
// BM_FaultedGossipRound runs whole engine rounds under an
// active drop/corrupt/dup plan, so the framing, per-link stateless draws,
// and masked difference-form aggregation are all on the clock. Both run
// under --quick; the CI gate requires the rows so a fault-path regression
// cannot hide by vanishing.
// ---------------------------------------------------------------------------

void BM_CrcFrame(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto codec = quant::make_codec(quant::Codec::kIdentity, 42);
  codec->begin_round(1);
  std::vector<float> row;
  codec_bench_row(dim, row);
  quant::QuantizedRow wire;
  codec->encode(row, wire);
  std::vector<std::uint8_t> frame;
  for (auto _ : state) {
    fault::encode_frame(wire, frame);
    benchmark::DoNotOptimize(fault::verify_frame(frame));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_CrcFrame)->Arg(2410)->Arg(2752)->Arg(100000);

// CRC32C alone over the two frame sizes chaos_256 ships at dim 2410: 2783
// bytes (int8) and 9709 (identity). BM_Crc32c takes the path the CPU
// picks (crc32c_isa in the report context), BM_Crc32cPortable the table
// path; the CI gate holds their ratio.
template <std::uint32_t (*Update)(std::uint32_t, const void*, std::size_t)>
void BM_Crc32cBytes(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> buffer(bytes);
  util::Rng rng(11);
  for (auto& byte : buffer) byte = static_cast<std::uint8_t>(rng.next_u64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Update(fault::kCrc32cInit, buffer.data(), buffer.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_Crc32cBytes<fault::crc32c_update>)
    ->Name("BM_Crc32c")
    ->Arg(2783)
    ->Arg(9709);
BENCHMARK(BM_Crc32cBytes<fault::crc32c_update_portable>)
    ->Name("BM_Crc32cPortable")
    ->Arg(2783)
    ->Arg(9709);

void BM_FaultedGossipRound(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  const bool faulted = state.range(1) != 0;
  data::CifarSynConfig config;
  config.nodes = nodes;
  config.samples_per_node = 8;
  config.test_pool = 10;
  auto dataset = data::make_cifar_synthetic(config);
  auto model = nn::make_compact_cifar_model(config.feature_dim);
  util::Rng rng(14);
  nn::initialize(model, rng);

  util::Rng topo_rng(15);
  const auto topology = graph::make_random_regular(nodes, 6, topo_rng);
  const auto mixing = graph::MixingMatrix::metropolis_hastings(topology);
  const core::DpsgdScheduler scheduler;
  const auto fleet = energy::Fleet::even(nodes, energy::Workload::kCifar10);
  std::vector<std::size_t> degrees(nodes, 6);
  energy::EnergyAccountant accountant(fleet, energy::CommModel{}, 89834,
                                      std::move(degrees));
  sim::EngineConfig engine_config;
  // One tiny local step: the gossip/fault path is what's on the clock.
  engine_config.local_steps = 1;
  engine_config.batch_size = 4;
  if (faulted) {
    engine_config.faults =
        fault::make_plan("drop:0.05,corrupt:0.01,dup:0.02");
  }
  sim::RoundEngine engine(model, dataset, mixing, scheduler,
                          std::move(accountant), engine_config);
  for (auto _ : state) {
    engine.run_round();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nodes));
  state.SetLabel(faulted ? "faulted" : "lossless");
}
BENCHMARK(BM_FaultedGossipRound)
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({64, 0})
    ->Args({64, 1})
    ->Unit(benchmark::kMillisecond);

/// A compact MLP, initialised, and a one-node synthetic dataset of 128
/// samples: the CIFAR model (64->32->10) or the FEMNIST one (64->48->62).
struct CompactMlp {
  data::FederatedData dataset;
  nn::Sequential model;

  explicit CompactMlp(bool femnist) {
    if (femnist) {
      data::FemnistSynConfig config;
      config.nodes = 1;
      config.mean_samples_per_node = 128;
      config.test_pool = 10;
      dataset = data::make_femnist_synthetic(config);
    } else {
      data::CifarSynConfig config;
      config.nodes = 1;
      config.samples_per_node = 128;
      config.test_pool = 10;
      dataset = data::make_cifar_synthetic(config);
    }
    const std::size_t features = dataset.train.feature_dim();
    model = femnist ? nn::make_compact_femnist_model(features)
                    : nn::make_compact_cifar_model(features);
    util::Rng rng(3);
    nn::initialize(model, rng);
  }
};

// One local SGD step of batch 16 on a compact MLP, as the sweeps run it:
// Arg(0) the CIFAR model, Arg(1) the FEMNIST one. Runs under --quick.
void BM_LocalSgdStep(benchmark::State& state) {
  const CompactMlp mlp(state.range(0) != 0);
  sim::Node node(0, mlp.model, mlp.dataset.node_view(0), nn::SgdOptions{0.1f},
                 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(node.train_local(1, 16));
  }
}
BENCHMARK(BM_LocalSgdStep)->Arg(0)->Arg(1);

enum class StepPart { kForward, kLoss, kBackward, kSgd };

// The parts of BM_LocalSgdStep, one row each, on the same models and
// batch size: the forward pass, softmax cross-entropy, the backward pass
// and the SGD update. Each part repeats on the state one whole step
// leaves behind (activations, logits gradient, parameter gradients). The
// whole step adds batch sampling, zero_grad and the gradient-arena attach.
// Runs under --quick.
template <StepPart kPart>
void BM_LocalSgdStepPart(benchmark::State& state) {
  CompactMlp mlp(state.range(0) != 0);
  nn::Workspace ws;
  ws.gradients.resize(mlp.model.num_parameters());
  mlp.model.attach_gradient_arena(ws.gradients);
  util::Rng rng(7);
  mlp.dataset.node_view(0).sample_batch(rng, 16, ws.features, ws.labels);
  nn::SgdOptimizer optimizer(nn::SgdOptions{0.1f});
  mlp.model.zero_grad();
  const tensor::Tensor& logits = mlp.model.forward(ws.features, ws.buffers);
  ws.grad_logits = tensor::Tensor(logits.shape());
  (void)nn::softmax_cross_entropy(logits, ws.labels, ws.grad_logits);
  mlp.model.backward(ws.features, ws.grad_logits, ws.buffers);
  for (auto _ : state) {
    switch (kPart) {
      case StepPart::kForward:
        benchmark::DoNotOptimize(
            mlp.model.forward(ws.features, ws.buffers).data());
        break;
      case StepPart::kLoss:
        benchmark::DoNotOptimize(
            nn::softmax_cross_entropy(logits, ws.labels, ws.grad_logits));
        break;
      case StepPart::kBackward:
        mlp.model.backward(ws.features, ws.grad_logits, ws.buffers);
        break;
      case StepPart::kSgd:
        optimizer.step(mlp.model);
        break;
    }
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_LocalSgdStepPart<StepPart::kForward>)
    ->Name("BM_LocalSgdStepForward")
    ->Arg(0)
    ->Arg(1);
BENCHMARK(BM_LocalSgdStepPart<StepPart::kLoss>)
    ->Name("BM_LocalSgdStepLoss")
    ->Arg(0)
    ->Arg(1);
BENCHMARK(BM_LocalSgdStepPart<StepPart::kBackward>)
    ->Name("BM_LocalSgdStepBackward")
    ->Arg(0)
    ->Arg(1);
BENCHMARK(BM_LocalSgdStepPart<StepPart::kSgd>)
    ->Name("BM_LocalSgdStepSgd")
    ->Arg(0)
    ->Arg(1);

// Softmax cross-entropy at the mlp_table3 step shapes: batch 16 of 62
// (FEMNIST) and of 10 (CIFAR) classes, logits from N(0, 2). Args: batch,
// classes. BM_SoftmaxCERef runs a copy of the two-exp loss the certified
// kernel replaced (one std::exp per logit in the log-sum-exp, one per
// probability); the CI bench gate holds the ratio at 16 x 62. Runs under
// --quick.
nn::LossResult softmax_cross_entropy_two_exp(
    const tensor::Tensor& logits, std::span<const std::int32_t> labels,
    tensor::Tensor& grad_logits) {
  const std::size_t batch = logits.dim(0);
  const std::size_t classes = logits.numel() / batch;
  double total_loss = 0.0;
  std::size_t correct = 0;
  const float inv_batch = 1.0f / static_cast<float>(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    const float* row = logits.raw() + b * classes;
    float* grad = grad_logits.raw() + b * classes;
    const auto label = static_cast<std::size_t>(labels[b]);
    float max_val = row[0];
    for (std::size_t c = 1; c < classes; ++c) {
      max_val = std::max(max_val, row[c]);
    }
    double sum = 0.0;
    for (std::size_t c = 0; c < classes; ++c) {
      sum += std::exp(static_cast<double>(row[c]) - max_val);
    }
    const double lse = static_cast<double>(max_val) + std::log(sum);
    total_loss += lse - static_cast<double>(row[label]);
    for (std::size_t c = 0; c < classes; ++c) {
      const float p =
          static_cast<float>(std::exp(static_cast<double>(row[c]) - lse));
      grad[c] = p * inv_batch;
    }
    grad[label] -= inv_batch;
    if (nn::argmax({row, classes}) == label) ++correct;
  }
  return nn::LossResult{
      total_loss / static_cast<double>(batch),
      static_cast<double>(correct) / static_cast<double>(batch)};
}

template <nn::LossResult (*kLoss)(const tensor::Tensor&,
                                  std::span<const std::int32_t>,
                                  tensor::Tensor&)>
void BM_SoftmaxCEShape(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto classes = static_cast<std::size_t>(state.range(1));
  tensor::Tensor logits({batch, classes});
  tensor::Tensor grad(logits.shape());
  util::Rng rng(16);
  rng.fill_normal(logits.data(), 0.0f, 2.0f);
  std::vector<std::int32_t> labels(batch);
  for (auto& label : labels) {
    label = static_cast<std::int32_t>(rng.uniform_int(classes));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(kLoss(logits, labels, grad));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch * classes));
}
BENCHMARK(BM_SoftmaxCEShape<nn::softmax_cross_entropy>)
    ->Name("BM_SoftmaxCE")
    ->Args({16, 62})
    ->Args({16, 10});
BENCHMARK(BM_SoftmaxCEShape<softmax_cross_entropy_two_exp>)
    ->Name("BM_SoftmaxCERef")
    ->Args({16, 62})
    ->Args({16, 10});

void BM_FullRound(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  data::CifarSynConfig config;
  config.nodes = nodes;
  config.samples_per_node = 40;
  config.test_pool = 10;
  auto dataset = data::make_cifar_synthetic(config);
  auto model = nn::make_compact_cifar_model(config.feature_dim);
  util::Rng rng(4);
  nn::initialize(model, rng);

  util::Rng topo_rng(5);
  const auto topology = graph::make_random_regular(nodes, 6, topo_rng);
  const auto mixing = graph::MixingMatrix::metropolis_hastings(topology);
  const core::DpsgdScheduler scheduler;
  const auto fleet = energy::Fleet::even(nodes, energy::Workload::kCifar10);
  std::vector<std::size_t> degrees(nodes, 6);
  energy::EnergyAccountant accountant(fleet, energy::CommModel{}, 89834,
                                      std::move(degrees));
  sim::EngineConfig engine_config;
  engine_config.local_steps = 5;
  engine_config.batch_size = 16;
  sim::RoundEngine engine(model, dataset, mixing, scheduler,
                          std::move(accountant), engine_config);
  for (auto _ : state) {
    engine.run_round();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nodes));
}
BENCHMARK(BM_FullRound)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_TopologyAndMixing(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  util::Rng rng(6);
  for (auto _ : state) {
    const auto topology = graph::make_random_regular(nodes, 6, rng);
    const auto mixing = graph::MixingMatrix::metropolis_hastings(topology);
    benchmark::DoNotOptimize(mixing.num_nodes());
  }
}
BENCHMARK(BM_TopologyAndMixing)->Arg(64)->Arg(256);

void BM_SpectralGap(benchmark::State& state) {
  util::Rng rng(7);
  const auto topology = graph::make_random_regular(
      static_cast<std::size_t>(state.range(0)), 6, rng);
  const auto mixing = graph::MixingMatrix::metropolis_hastings(topology);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mixing.spectral_gap(100));
  }
}
BENCHMARK(BM_SpectralGap)->Arg(64)->Arg(256);

// The per-round fleet evaluation at chaos_256's eval shape: 600 test
// samples through each of range(0) compact CIFAR MLPs on the global pool,
// accuracy only. Runs under --quick.
void BM_EvaluateFleet(benchmark::State& state) {
  data::CifarSynConfig config;
  config.nodes = 2;
  config.samples_per_node = 40;
  config.test_pool = 1200;
  auto dataset = data::make_cifar_synthetic(config);
  std::vector<nn::Sequential> fleet;
  std::vector<nn::Sequential*> models;
  util::Rng rng(8);
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    fleet.push_back(nn::make_compact_cifar_model(config.feature_dim));
    nn::initialize(fleet.back(), rng);
  }
  for (auto& model : fleet) models.push_back(&model);
  const metrics::Evaluator evaluator(&dataset.test, 600);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.evaluate_fleet(models).accuracy.mean);
  }
}
BENCHMARK(BM_EvaluateFleet)->Arg(16);

// The synthetic dataset build at the node-parallel workloads' data shapes:
// cnn_lenet's (16 x 64 samples plus a 400-sample eval pool, 3072 features)
// and fleet_10k's (10 000 x 8 plus 400, 64 features), on the global pool.
// BM_SyntheticBuildSerial is the same build inside a ScopedForceSerial
// scope, as a trial-parallel sweep runs it; the CI gate holds each pair's
// ratio. Runs under --quick.
data::CifarSynConfig synthetic_shape(std::size_t nodes,
                                     std::size_t samples_per_node,
                                     std::size_t feature_dim) {
  data::CifarSynConfig config;
  config.nodes = nodes;
  config.samples_per_node = samples_per_node;
  config.feature_dim = feature_dim;
  config.test_pool = 400;
  return config;
}
const data::CifarSynConfig kLenetData = synthetic_shape(16, 64, 3 * 32 * 32);
const data::CifarSynConfig kFleetData = synthetic_shape(10000, 8, 64);

void BM_SyntheticBuild(benchmark::State& state,
                       const data::CifarSynConfig& config) {
  for (auto _ : state) {
    const data::FederatedData built = data::make_cifar_synthetic(config);
    benchmark::DoNotOptimize(built.train.features.raw());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(config.nodes * config.samples_per_node +
                                config.test_pool));
}
void BM_SyntheticBuildSerial(benchmark::State& state,
                             const data::CifarSynConfig& config) {
  const util::ThreadPool::ScopedForceSerial serial;
  BM_SyntheticBuild(state, config);
}
// The build runs on pool workers: time it by the wall clock.
BENCHMARK_CAPTURE(BM_SyntheticBuild, lenet, kLenetData)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SyntheticBuild, fleet, kFleetData)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SyntheticBuildSerial, lenet, kLenetData)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SyntheticBuildSerial, fleet, kFleetData)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ShardPartition(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  std::vector<std::int32_t> labels(nodes * 200);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<std::int32_t>(i % 10);
  }
  util::Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(data::shard_partition(labels, nodes, 2, rng));
  }
}
BENCHMARK(BM_ShardPartition)->Arg(64)->Arg(256);

// --- telemetry overhead ----------------------------------------------------
// Cost of one Counter::add (Arg(1) = enabled, Arg(0) = disabled) and one
// OBS_SPAN with tracing inactive. These pin the "near-zero cost" claim:
// disabled is a relaxed flag load + branch, enabled adds one relaxed
// fetch_add on a thread-local shard. Run under --quick; the CI gate
// requires the rows so a hot-path regression cannot hide by vanishing.
void BM_ObsCounterOverhead(benchmark::State& state) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(state.range(0) != 0);
  static const obs::Counter counter = obs::counter("bench.obs.counter");
  for (auto _ : state) {
    counter.add(1);
  }
  obs::set_enabled(was_enabled);
}
BENCHMARK(BM_ObsCounterOverhead)->Arg(0)->Arg(1);

void BM_ObsSpanOverhead(benchmark::State& state) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(state.range(0) != 0);
  for (auto _ : state) {
    OBS_SPAN("bench.obs.span");
    benchmark::ClobberMemory();
  }
  obs::set_enabled(was_enabled);
}
BENCHMARK(BM_ObsSpanOverhead)->Arg(0)->Arg(1);

}  // namespace

// Custom main: `--quick` restricts the run to the aggregate-phase and
// codec grids at a short min-time (the per-PR CI mode), and results
// default to BENCH_aggregate.json so the perf trajectory is recorded even
// when no --benchmark_out is given.
int main(int argc, char** argv) {
  std::vector<std::string> args(argv, argv + argc);
  bool quick = false;
  for (auto it = args.begin(); it != args.end();) {
    if (*it == "--quick") {
      quick = true;
      it = args.erase(it);
    } else {
      ++it;
    }
  }
  if (quick) {
    args.insert(args.begin() + 1,
                "--benchmark_filter=BM_Aggregate|BM_Gossip|BM_Codec|BM_Checkpoint|BM_Harvest|BM_Scenario|BM_Gemm(NN|NT|TN)((Sparse|Mlp)?(Blocked|Ref|Rows)|Mlp|Indexed)/|BM_Conv2d|BM_GroupNorm|BM_MaxPool|BM_Obs|BM_CrcFrame|BM_Crc32c|BM_Int8Encode|BM_FaultedGossip|BM_LocalSgdStep|BM_SoftmaxCE|BM_FullRound/16|BM_EvaluateFleet/16|BM_SyntheticBuild");
    args.insert(args.begin() + 1, "--benchmark_min_time=0.05");
  }
  const bool has_out =
      std::any_of(args.begin(), args.end(), [](const std::string& arg) {
        return arg.rfind("--benchmark_out=", 0) == 0;
      });
  if (!has_out) {
    args.push_back("--benchmark_out=BENCH_aggregate.json");
    args.push_back("--benchmark_out_format=json");
  }

  std::vector<char*> argv2;
  argv2.reserve(args.size());
  for (auto& arg : args) argv2.push_back(arg.data());
  int argc2 = static_cast<int>(argv2.size());
  benchmark::Initialize(&argc2, argv2.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, argv2.data())) return 1;
  // The GEMM clone sets every BM_Gemm*/BM_Conv2d* time and the CRC32C path
  // every BM_Crc* time; name both in the context block so rows from
  // different hosts can be told apart.
  benchmark::AddCustomContext("gemm_isa", skiptrain::tensor::gemm_isa());
  benchmark::AddCustomContext("crc32c_isa", skiptrain::fault::crc32c_isa());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
