#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "data/synthetic.hpp"
#include "metrics/consensus.hpp"
#include "metrics/evaluator.hpp"
#include "metrics/recorder.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/model_zoo.hpp"

namespace skiptrain::metrics {
namespace {

data::Dataset tiny_dataset() {
  // 4 samples in 2D; class = sign of feature 0.
  data::Dataset dataset;
  dataset.features = tensor::Tensor({4, 2});
  dataset.labels = {0, 0, 1, 1};
  dataset.num_classes = 2;
  dataset.features.at(0, 0) = -2.0f;
  dataset.features.at(1, 0) = -1.0f;
  dataset.features.at(2, 0) = 1.0f;
  dataset.features.at(3, 0) = 2.0f;
  return dataset;
}

/// A linear model that predicts class 1 iff feature 0 > 0.
nn::Sequential perfect_model() {
  nn::Sequential model = nn::make_softmax_regression(2, 2);
  // logits = W x + b; W[0] = (-1, 0), W[1] = (1, 0).
  auto* linear = dynamic_cast<nn::Linear*>(&model.layer(0));
  linear->weights()[0] = -1.0f;
  linear->weights()[1] = 0.0f;
  linear->weights()[2] = 1.0f;
  linear->weights()[3] = 0.0f;
  return model;
}

TEST(Evaluator, PerfectModelScoresOne) {
  const data::Dataset dataset = tiny_dataset();
  const Evaluator evaluator(&dataset);
  nn::Sequential model = perfect_model();
  const EvalResult result = evaluator.evaluate(model);
  EXPECT_DOUBLE_EQ(result.accuracy, 1.0);
  EXPECT_LT(result.loss, 0.7);
}

TEST(Evaluator, InvertedModelScoresZero) {
  const data::Dataset dataset = tiny_dataset();
  const Evaluator evaluator(&dataset);
  nn::Sequential model = perfect_model();
  // Flip the weights: always predicts the wrong class.
  auto params = model.parameters_flat();
  for (auto& p : params) p = -p;
  model.set_parameters(params);
  EXPECT_DOUBLE_EQ(evaluator.evaluate(model).accuracy, 0.0);
}

TEST(Evaluator, MaxSamplesCapsSweep) {
  data::CifarSynConfig config;
  config.nodes = 2;
  config.samples_per_node = 10;
  config.test_pool = 400;
  const data::FederatedData data = data::make_cifar_synthetic(config);
  const Evaluator capped(&data.test, 50);
  EXPECT_EQ(capped.samples_used(), 50u);
  const Evaluator full(&data.test, 0);
  EXPECT_EQ(full.samples_used(), data.test.size());
}

TEST(Evaluator, BatchSizeDoesNotChangeResult) {
  data::CifarSynConfig config;
  config.nodes = 2;
  config.samples_per_node = 10;
  config.test_pool = 300;
  const data::FederatedData data = data::make_cifar_synthetic(config);
  nn::Sequential model = nn::make_compact_cifar_model(config.feature_dim);
  util::Rng rng(5);
  nn::initialize(model, rng);

  const Evaluator small_batches(&data.test, 0, 7);
  const Evaluator big_batches(&data.test, 0, 128);
  EXPECT_DOUBLE_EQ(small_batches.evaluate(model).accuracy,
                   big_batches.evaluate(model).accuracy);
  EXPECT_NEAR(small_batches.evaluate(model).loss,
              big_batches.evaluate(model).loss, 1e-9);
}

TEST(Evaluator, EvaluateAverageEqualsAveragedModel) {
  const data::Dataset dataset = tiny_dataset();
  const Evaluator evaluator(&dataset);
  nn::Sequential prototype = nn::make_softmax_regression(2, 2);

  // Two opposite models; their average is the zero model (50% accuracy
  // territory; argmax ties resolve to class 0 -> accuracy 0.5 here).
  nn::Sequential a = perfect_model();
  std::vector<std::vector<float>> params;
  params.push_back(a.parameters_flat());
  auto negated = a.parameters_flat();
  for (auto& p : negated) p = -p;
  params.push_back(negated);

  const EvalResult averaged = evaluator.evaluate_average(prototype, params);
  EXPECT_DOUBLE_EQ(averaged.accuracy, 0.5);

  EXPECT_THROW(evaluator.evaluate_average(
                   prototype, std::span<const std::vector<float>>{}),
               std::invalid_argument);
}

TEST(Evaluator, FleetSummary) {
  const data::Dataset dataset = tiny_dataset();
  const Evaluator evaluator(&dataset);
  nn::Sequential good = perfect_model();
  nn::Sequential bad = perfect_model();
  auto params = bad.parameters_flat();
  for (auto& p : params) p = -p;
  bad.set_parameters(params);

  std::vector<nn::Sequential*> models{&good, &bad};
  const auto result = evaluator.evaluate_fleet(models);
  EXPECT_DOUBLE_EQ(result.accuracy.mean, 0.5);
  EXPECT_DOUBLE_EQ(result.per_node[0], 1.0);
  EXPECT_DOUBLE_EQ(result.per_node[1], 0.0);
  EXPECT_NEAR(result.accuracy.stddev, 0.5, 1e-12);
}

TEST(Evaluator, ZeroBatchSizeThrows) {
  const data::Dataset dataset = tiny_dataset();
  EXPECT_THROW(
      {
        const Evaluator evaluator(&dataset, 0, 0);
        (void)evaluator;
      },
      std::invalid_argument);
}

/// The fleet's accuracy-only path must reproduce evaluate()'s accuracy bit
/// for bit: full and ragged last batches, tied logits (the first maximum
/// wins), a NaN weight, and a fleet large enough to run on the pool.
TEST(Evaluator, FleetAccuracyEqualsSingleModelBitwise) {
  data::CifarSynConfig config;
  config.nodes = 2;
  config.samples_per_node = 10;
  config.test_pool = 1200;  // 600 test samples
  const data::FederatedData data = data::make_cifar_synthetic(config);

  std::vector<nn::Sequential> fleet;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    fleet.push_back(nn::make_compact_cifar_model(config.feature_dim));
    util::Rng rng(100 + seed);
    nn::initialize(fleet.back(), rng);
  }
  // All-zero parameters: every logit ties, so every prediction is class 0.
  fleet.push_back(nn::make_compact_cifar_model(config.feature_dim));
  fleet.back().set_parameters(
      std::vector<float>(fleet.back().num_parameters(), 0.0f));
  const std::size_t tied = fleet.size() - 1;
  // A NaN in row 3 of the last layer's W: logit 3 is NaN on every sample.
  fleet.push_back(fleet.front().clone());
  auto& last = dynamic_cast<nn::Linear&>(
      fleet.back().layer(fleet.back().num_layers() - 1));
  last.weights()[3 * last.in_features()] =
      std::numeric_limits<float>::quiet_NaN();

  std::vector<nn::Sequential*> models;
  for (auto& model : fleet) models.push_back(&model);
  std::size_t label_zero = 0;
  for (std::size_t i = 0; i < 600; ++i) {
    if (data.test.labels[i] == 0) ++label_zero;
  }

  for (const std::size_t batch_size : {std::size_t{256}, std::size_t{7}}) {
    const Evaluator evaluator(&data.test, 600, batch_size);
    ASSERT_EQ(evaluator.samples_used(), 600u);
    const auto result = evaluator.evaluate_fleet(models);
    ASSERT_EQ(result.per_node.size(), fleet.size());
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(result.per_node[i]),
                std::bit_cast<std::uint64_t>(
                    evaluator.evaluate(*models[i]).accuracy))
          << "model " << i << ", batch " << batch_size;
    }
    EXPECT_DOUBLE_EQ(result.per_node[tied],
                     static_cast<double>(label_zero) / 600.0);
  }
}

TEST(Evaluator, EmptyDatasetThrows) {
  data::Dataset no_samples;
  no_samples.num_classes = 2;
  EXPECT_THROW(
      {
        const Evaluator evaluator(&no_samples);
        (void)evaluator;
      },
      std::invalid_argument);
}

TEST(Consensus, ZeroForIdenticalModels) {
  std::vector<std::vector<float>> params(4, std::vector<float>{1.0f, 2.0f});
  EXPECT_DOUBLE_EQ(consensus_distance(params), 0.0);
  EXPECT_DOUBLE_EQ(max_pairwise_distance(params), 0.0);
}

TEST(Consensus, KnownConfiguration) {
  // Two models at ±1 on one axis: mean is 0, each is distance 1 from it.
  std::vector<std::vector<float>> params{{1.0f}, {-1.0f}};
  EXPECT_DOUBLE_EQ(consensus_distance(params), 1.0);
  EXPECT_DOUBLE_EQ(max_pairwise_distance(params), 2.0);
}

TEST(Consensus, RaggedInputThrows) {
  std::vector<std::vector<float>> params{{1.0f, 2.0f}, {1.0f}};
  EXPECT_THROW((void)consensus_distance(params), std::invalid_argument);
}

TEST(Recorder, BestAndLastAccessors) {
  Recorder recorder("exp");
  EXPECT_TRUE(recorder.empty());
  RoundRecord r1;
  r1.round = 8;
  r1.mean_accuracy = 0.5;
  r1.train_energy_wh = 10.0;
  recorder.add(r1);
  RoundRecord r2;
  r2.round = 16;
  r2.mean_accuracy = 0.4;  // dips
  r2.train_energy_wh = 20.0;
  recorder.add(r2);

  EXPECT_EQ(recorder.records().size(), 2u);
  EXPECT_EQ(recorder.last().round, 16u);
  EXPECT_DOUBLE_EQ(recorder.best_mean_accuracy(), 0.5);
}

TEST(Recorder, RecordAtEnergyFindsFirstCrossing) {
  Recorder recorder("exp");
  for (int i = 1; i <= 5; ++i) {
    RoundRecord r;
    r.round = static_cast<std::size_t>(i);
    r.train_energy_wh = 10.0 * i;
    r.mean_accuracy = 0.1 * i;
    recorder.add(r);
  }
  const auto at_25 = recorder.record_at_energy(25.0);
  ASSERT_TRUE(at_25.has_value());
  EXPECT_EQ(at_25->round, 3u);  // first record with energy >= 25

  EXPECT_FALSE(recorder.record_at_energy(1000.0).has_value());
}

TEST(Recorder, CsvExportRoundTrips) {
  const std::string path = ::testing::TempDir() + "recorder_test.csv";
  Recorder recorder("exp");
  RoundRecord r;
  r.round = 4;
  r.training_round = true;
  r.mean_accuracy = 0.625;
  r.nodes_trained = 32;
  recorder.add(r);
  recorder.write_csv(path);

  std::ifstream in(path);
  std::string header, row;
  std::getline(in, header);
  std::getline(in, row);
  EXPECT_NE(header.find("mean_accuracy"), std::string::npos);
  EXPECT_NE(row.find("0.625"), std::string::npos);
  EXPECT_NE(row.find("32"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Recorder, RenderSeriesShowsKindAndRows) {
  Recorder recorder("my-experiment");
  RoundRecord train_record;
  train_record.round = 1;
  train_record.training_round = true;
  recorder.add(train_record);
  RoundRecord sync_record;
  sync_record.round = 2;
  sync_record.training_round = false;
  recorder.add(sync_record);

  const std::string rendered = recorder.render_series();
  EXPECT_NE(rendered.find("my-experiment"), std::string::npos);
  EXPECT_NE(rendered.find("train"), std::string::npos);
  EXPECT_NE(rendered.find("sync"), std::string::npos);
}

}  // namespace
}  // namespace skiptrain::metrics
