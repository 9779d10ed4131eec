// Umbrella header: everything a downstream user needs to run SkipTrain
// experiments.
//
//   #include "core/skiptrain.hpp"
//
//   auto data = skiptrain::data::make_cifar_synthetic({.nodes = 64});
//   auto model = skiptrain::nn::make_compact_cifar_model(
//       data.train.feature_dim());
//   skiptrain::util::Rng rng(1);
//   skiptrain::nn::initialize(model, rng);
//
//   skiptrain::sim::RunOptions options;
//   options.algorithm = skiptrain::sim::Algorithm::kSkipTrain;
//   auto result = skiptrain::sim::run_experiment(data, model, options);
#pragma once

#include "ckpt/fleet_image.hpp"
#include "ckpt/io.hpp"
#include "ckpt/trial_store.hpp"
#include "core/compression.hpp"
#include "core/equations.hpp"
#include "core/scheduler.hpp"
#include "data/dataset.hpp"
#include "data/distribution.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "energy/accountant.hpp"
#include "energy/device.hpp"
#include "energy/fleet.hpp"
#include "fault/crc32c.hpp"
#include "fault/fault.hpp"
#include "fault/frame.hpp"
#include "graph/mixing.hpp"
#include "graph/topology.hpp"
#include "metrics/consensus.hpp"
#include "metrics/evaluator.hpp"
#include "metrics/recorder.hpp"
#include "nn/conv2d.hpp"
#include "nn/gradcheck.hpp"
#include "nn/init.hpp"
#include "nn/loss.hpp"
#include "nn/model_zoo.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"
#include "quant/codec.hpp"
#include "scenario/scenario.hpp"
#include "scenario/trace.hpp"
#include "sim/engine.hpp"
#include "sim/node.hpp"
#include "sim/runner.hpp"
#include "sweep/sweep.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
