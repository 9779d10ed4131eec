#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "sweep/sweep.hpp"
#include "tensor/gemm.hpp"

namespace skiptrain::sweep {
namespace {

/// A grid small enough that a full sweep runs in well under a second.
SweepGrid tiny_grid() {
  SweepGrid grid;
  grid.name = "tiny";
  grid.data.nodes = 8;
  grid.data.samples_per_node = 6;
  grid.data.test_pool = 40;
  grid.base.total_rounds = 4;
  grid.base.local_steps = 1;
  grid.base.batch_size = 4;
  grid.base.eval_every = 4;
  grid.base.eval_max_samples = 20;
  grid.base.degree = 2;
  return grid;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(SweepGrid, EmptyAxesExpandToSingleBaseTrial) {
  SweepGrid grid = tiny_grid();
  EXPECT_EQ(grid.trial_count(), 1u);
  const auto trials = grid.expand();
  ASSERT_EQ(trials.size(), 1u);
  EXPECT_EQ(trials[0].index, 0u);
  EXPECT_EQ(trials[0].options.degree, 2u);
  EXPECT_EQ(trials[0].data.nodes, 8u);
  EXPECT_EQ(trials[0].options.workload, energy::Workload::kCifar10);
}

TEST(SweepGrid, CrossProductCountAndNestingOrder) {
  SweepGrid grid = tiny_grid();
  grid.degrees = {2, 4};
  grid.gamma_syncs = {1, 2, 3};
  grid.gamma_trains = {1, 2};
  EXPECT_EQ(grid.trial_count(), 12u);
  const auto trials = grid.expand();
  ASSERT_EQ(trials.size(), 12u);
  // Degrees outermost, then Γsync, then Γtrain innermost.
  EXPECT_EQ(trials[0].options.degree, 2u);
  EXPECT_EQ(trials[0].options.gamma_sync, 1u);
  EXPECT_EQ(trials[0].options.gamma_train, 1u);
  EXPECT_EQ(trials[1].options.gamma_train, 2u);
  EXPECT_EQ(trials[2].options.gamma_sync, 2u);
  EXPECT_EQ(trials[6].options.degree, 4u);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    EXPECT_EQ(trials[i].index, i);
  }
}

TEST(SweepGrid, SeedAxisSetsBothRunAndDataSeed) {
  SweepGrid grid = tiny_grid();
  grid.seeds = {7, 9};
  const auto trials = grid.expand();
  ASSERT_EQ(trials.size(), 2u);
  EXPECT_EQ(trials[0].options.seed, 7u);
  EXPECT_EQ(trials[0].data.seed, 7u);
  EXPECT_EQ(trials[1].options.seed, 9u);
  EXPECT_EQ(trials[1].data.seed, 9u);
}

TEST(SweepGrid, TrialRulesCoupleAxesAndRunBeforeBudgetScaling) {
  SweepGrid grid = grid_from_kv({{"dataset", "both"},
                                 {"degrees", "6,8,10"},
                                 {"algorithms", "skiptrain,dpsgd"},
                                 {"scale-budgets", "true"},
                                 {"rounds", "paper"},
                                 {"tuned-gammas", "true"},
                                 {"eval-every", "total/10"}},
                                tiny_grid());
  const auto trials = grid.expand();
  ASSERT_EQ(trials.size(), 12u);
  // Trials 0-2: CIFAR SkipTrain at degrees 6, 8, 10.
  EXPECT_EQ(trials[1].options.gamma_train, 3u);
  EXPECT_EQ(trials[1].options.gamma_sync, 3u);
  EXPECT_EQ(trials[2].options.gamma_train, 4u);
  EXPECT_EQ(trials[2].options.gamma_sync, 2u);
  // D-PSGD keeps the base Γ.
  EXPECT_EQ(trials[3].options.gamma_train, grid.base.gamma_train);
  EXPECT_EQ(trials[3].options.gamma_sync, grid.base.gamma_sync);
  // The horizon is the workload's paper T, and the eval cadence and the
  // budget scale are taken from it, not from base.total_rounds.
  for (const TrialSpec& spec : trials) {
    const std::size_t paper =
        energy::workload_spec(spec.options.workload).total_rounds;
    EXPECT_EQ(spec.options.total_rounds, paper);
    EXPECT_EQ(spec.options.eval_every, paper / 10);
    EXPECT_DOUBLE_EQ(spec.options.budget_scale, 1.0);
  }
  EXPECT_EQ(trials[6].options.total_rounds, 3000u);  // FEMNIST

  // Without the horizon rule the cadence divides base.total_rounds, and
  // never drops below one round.
  grid.paper_horizon = false;
  grid.base.total_rounds = 9;
  for (const TrialSpec& spec : grid.expand()) {
    EXPECT_EQ(spec.options.eval_every, 1u);
    EXPECT_DOUBLE_EQ(
        spec.options.budget_scale,
        9.0 / energy::workload_spec(spec.options.workload).total_rounds);
  }
}

TEST(SweepGrid, TrialCountThrowsOnOverflowInsteadOfWrapping) {
  // Six axes of 2^11 values: a 2^66 cross product from 96 KiB of axes.
  SweepGrid grid;
  std::vector<std::size_t> axis(std::size_t{1} << 11);
  grid.node_counts = axis;
  grid.degrees = axis;
  grid.gamma_syncs = axis;
  grid.gamma_trains = axis;
  grid.sparse_ks = axis;
  grid.seeds.assign(axis.size(), 1);
  EXPECT_THROW((void)grid.trial_count(), std::overflow_error);
  EXPECT_THROW((void)grid.expand(), std::overflow_error);
  grid.sparse_ks.clear();  // 2^55 still fits
  EXPECT_EQ(grid.trial_count(), std::size_t{1} << 55);
  // ...but expand() refuses to materialise more than kMaxTrials.
  EXPECT_THROW((void)grid.expand(), std::length_error);
  grid = SweepGrid();
  grid.seeds.assign(kMaxTrials, 1);
  EXPECT_EQ(grid.expand().size(), kMaxTrials);
  grid.degrees = {6, 8};
  EXPECT_THROW((void)grid.expand(), std::length_error);
}

TEST(SweepGrid, UnknownDatasetThrows) {
  SweepGrid grid = tiny_grid();
  grid.datasets = {"mnist"};
  EXPECT_THROW(grid.expand(), std::invalid_argument);
}

TEST(DatasetCache, SharesOneBuildPerKey) {
  DatasetCache cache;
  DataConfig config;
  config.nodes = 8;
  config.samples_per_node = 6;
  config.test_pool = 40;
  const auto first = cache.get(config);
  const auto second = cache.get(config);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.size(), 1u);

  DataConfig other = config;
  other.seed = 43;
  const auto third = cache.get(other);
  EXPECT_NE(first.get(), third.get());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(first->data.num_nodes(), 8u);
}

TEST(DatasetCache, ConcurrentGetsReturnTheSameBuild) {
  DatasetCache cache;
  DataConfig config;
  config.nodes = 8;
  config.samples_per_node = 6;
  config.test_pool = 40;
  std::vector<std::shared_ptr<const SharedWorkload>> seen(8);
  // Deliberately raw threads: the point is uncoordinated concurrent
  // cache.get calls, not pool-scheduled ones.
  std::vector<std::thread> threads;  // lint:allow(raw-thread)
  for (std::size_t i = 0; i < seen.size(); ++i) {
    threads.emplace_back([&cache, &seen, config, i] {
      seen[i] = cache.get(config);
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& workload : seen) {
    EXPECT_EQ(workload.get(), seen[0].get());
  }
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultSink, OrdersRowsByTrialIndexNotArrival) {
  ResultSink sink(3);
  for (const std::size_t index : {2u, 0u, 1u}) {
    TrialResult result;
    result.spec.index = index;
    result.spec.options.seed = 100 + index;
    sink.record(std::move(result));
  }
  EXPECT_EQ(sink.recorded(), 3u);
  const auto rows = sink.take_rows();
  ASSERT_EQ(rows.size(), 3u);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].spec.index, i);
    EXPECT_EQ(rows[i].spec.options.seed, 100 + i);
  }
}

TEST(ResultSink, UnrecordedSlotsSurfaceAsFailures) {
  ResultSink sink(2);
  TrialResult result;
  result.spec.index = 0;
  sink.record(result);
  const auto rows = sink.take_rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_TRUE(rows[0].ok());
  EXPECT_FALSE(rows[1].ok());
  EXPECT_EQ(rows[1].spec.index, 1u);
  EXPECT_NE(rows[1].error.find("missing"), std::string::npos);
  EXPECT_EQ(sink.failures(), 1u);
}

TEST(ResultSink, RejectsDuplicateAndOutOfRangeIndices) {
  ResultSink sink(2);
  TrialResult result;
  result.spec.index = 1;
  sink.record(result);
  EXPECT_THROW(sink.record(result), std::logic_error);
  result.spec.index = 2;
  EXPECT_THROW(sink.record(result), std::out_of_range);
}

TEST(SweepRunner, ResultsAreByteIdenticalAcrossWorkerCounts) {
  SweepGrid grid = tiny_grid();
  grid.algorithms = {sim::Algorithm::kSkipTrain, sim::Algorithm::kDpsgd};
  grid.gamma_trains = {1, 2};
  grid.seeds = {1, 2};

  // D-PSGD trains all 4 rounds, SkipTrain 1 or 2 of them, so the pool
  // takes the trials out of index order: the CSV check below covers a
  // reordered dispatch.
  const std::vector<TrialSpec> specs = grid.expand();
  const std::vector<std::size_t> order = dispatch_order(specs);
  ASSERT_EQ(order.size(), specs.size());
  EXPECT_FALSE(std::is_sorted(order.begin(), order.end()));

  SweepOptions serial_options;
  serial_options.threads = 1;
  const SweepReport serial = SweepRunner(serial_options).run(grid);

  SweepOptions parallel_options;
  parallel_options.threads = 4;
  const SweepReport parallel = SweepRunner(parallel_options).run(grid);

  ASSERT_EQ(serial.trials.size(), 8u);
  ASSERT_EQ(parallel.trials.size(), 8u);
  EXPECT_TRUE(serial.all_ok());
  EXPECT_TRUE(parallel.all_ok());

  const std::string serial_path =
      testing::TempDir() + "sweep_serial.csv";
  const std::string parallel_path =
      testing::TempDir() + "sweep_parallel.csv";
  serial.write_csv(serial_path);
  parallel.write_csv(parallel_path);
  const std::string serial_bytes = read_file(serial_path);
  EXPECT_FALSE(serial_bytes.empty());
  EXPECT_EQ(serial_bytes, read_file(parallel_path));
}

TEST(SweepRunner, DispatchOrderIsLongestEstimatedFirst) {
  // table3 nests datasets, algorithms, degrees: 0-2 CIFAR SkipTrain,
  // 3-5 CIFAR D-PSGD, 6-8 FEMNIST SkipTrain, 9-11 FEMNIST D-PSGD. The
  // FEMNIST model has ~2.6x the parameters and D-PSGD trains every round,
  // so FEMNIST D-PSGD goes first (equal cost: index order) and CIFAR
  // SkipTrain last.
  const std::vector<TrialSpec> trials = make_preset("table3").expand();
  ASSERT_EQ(trials.size(), 12u);
  const std::vector<std::size_t> order = dispatch_order(trials);
  ASSERT_EQ(order.size(), 12u);
  std::vector<std::size_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
  EXPECT_EQ(order[0], 9u);
  EXPECT_EQ(order[1], 10u);
  EXPECT_EQ(order[2], 11u);
  for (std::size_t k = 9; k < 12; ++k) {
    const TrialSpec& spec = trials[order[k]];
    EXPECT_EQ(spec.data.dataset, "cifar") << "position " << k;
    EXPECT_EQ(spec.options.algorithm, sim::Algorithm::kSkipTrain)
        << "position " << k;
  }
  EXPECT_TRUE(dispatch_order({}).empty());

  // A zero Γ fails its own trial; dispatch must not throw on it.
  std::vector<TrialSpec> zero_gamma(trials.begin(), trials.begin() + 2);
  zero_gamma[0].options.gamma_train = 0;
  EXPECT_EQ(dispatch_order(zero_gamma), (std::vector<std::size_t>{1, 0}));
}

TEST(SweepRunner, TracingLeavesSummaryCsvByteIdentical) {
  // The observability hard constraint: telemetry is observational only.
  // The SAME grid with phase-span tracing active — and at a different
  // worker count — must produce the identical summary CSV bytes, and the
  // trace/telemetry artifacts must come out well-formed.
  SweepGrid grid = tiny_grid();
  grid.gamma_trains = {1, 2};
  grid.seeds = {1, 2};

  SweepOptions untraced_options;
  untraced_options.threads = 1;
  const SweepReport untraced = SweepRunner(untraced_options).run(grid);

  const std::string trace_path = testing::TempDir() + "sweep_trace.json";
  ASSERT_TRUE(obs::start_tracing(trace_path));
  SweepOptions traced_options;
  traced_options.threads = 4;
  const SweepReport traced = SweepRunner(traced_options).run(grid);
  obs::stop_tracing();

  ASSERT_TRUE(untraced.all_ok());
  ASSERT_TRUE(traced.all_ok());
  const std::string untraced_path = testing::TempDir() + "sweep_untraced.csv";
  const std::string traced_path = testing::TempDir() + "sweep_traced.csv";
  untraced.write_csv(untraced_path);
  traced.write_csv(traced_path);
  const std::string bytes = read_file(untraced_path);
  EXPECT_FALSE(bytes.empty());
  EXPECT_EQ(bytes, read_file(traced_path));

  // The trace captured spans for the instrumented phases...
  const std::string trace = read_file(trace_path);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("round.train"), std::string::npos);
  EXPECT_NE(trace.find("round.gossip"), std::string::npos);

  // ...and the aggregate telemetry is consistent: every fresh trial ran 4
  // rounds, each accumulated per-phase time, and the JSON export parses
  // far enough to carry the phase map.
  EXPECT_EQ(traced.telemetry.rounds, 4u * traced.trials.size());
  EXPECT_GT(traced.telemetry.phases.total_seconds(), 0.0);
  EXPECT_GT(traced.telemetry.wire_bytes, 0u);
  const std::string telemetry_path =
      testing::TempDir() + "sweep_telemetry.json";
  write_telemetry_json(telemetry_path, traced);
  const std::string telemetry = read_file(telemetry_path);
  EXPECT_NE(telemetry.find("\"phases\""), std::string::npos);
  EXPECT_NE(telemetry.find("\"train\""), std::string::npos);
  EXPECT_NE(telemetry.find("\"wire_bytes\""), std::string::npos);
  EXPECT_NE(telemetry.find(std::string("\"gemm_isa\": \"") +
                           tensor::gemm_isa() + "\""),
            std::string::npos);
}

TEST(SweepRunner, IdentityCodecLeavesSummaryCsvByteIdentical) {
  // The codec axis must be invisible when it holds only the identity
  // codec: same trial expansion, same engine fast path, same CSV bytes as
  // a grid that never mentions codecs (the pre-quantization schema).
  SweepGrid plain = tiny_grid();
  plain.gamma_trains = {1, 2};
  SweepGrid with_axis = tiny_grid();
  with_axis.gamma_trains = {1, 2};
  with_axis.codecs = {quant::Codec::kIdentity};

  SweepOptions options;
  options.threads = 2;
  const SweepReport a = SweepRunner(options).run(plain);
  const SweepReport b = SweepRunner(options).run(with_axis);
  const std::string path_a = testing::TempDir() + "sweep_plain.csv";
  const std::string path_b = testing::TempDir() + "sweep_identity.csv";
  a.write_csv(path_a);
  b.write_csv(path_b);
  const std::string bytes = read_file(path_a);
  EXPECT_FALSE(bytes.empty());
  EXPECT_EQ(bytes, read_file(path_b));
}

TEST(SweepRunner, QuantizedTrialsAreByteIdenticalAcrossWorkerCounts) {
  // The quantized exchange must keep the sweep determinism contract: the
  // encode/decode fan-out runs on worker threads, so its output must not
  // depend on the pool size.
  SweepGrid grid = tiny_grid();
  grid.codecs = {quant::Codec::kInt8Dithered};
  grid.seeds = {1, 2};

  SweepOptions serial_options;
  serial_options.threads = 1;
  const SweepReport serial = SweepRunner(serial_options).run(grid);
  SweepOptions parallel_options;
  parallel_options.threads = 4;
  const SweepReport parallel = SweepRunner(parallel_options).run(grid);
  EXPECT_TRUE(serial.all_ok());

  const std::string serial_path = testing::TempDir() + "quant_serial.csv";
  const std::string parallel_path = testing::TempDir() + "quant_parallel.csv";
  serial.write_csv(serial_path);
  parallel.write_csv(parallel_path);
  const std::string bytes = read_file(serial_path);
  EXPECT_FALSE(bytes.empty());
  EXPECT_EQ(bytes, read_file(parallel_path));

  // Quantized grids gain a codec attribution column (identity-only grids
  // keep the pre-quantization schema — see the byte-identity test above).
  EXPECT_NE(bytes.find(",codec,"), std::string::npos);
  EXPECT_NE(bytes.find("int8-dither"), std::string::npos);
}

TEST(SweepRunner, TrialFailuresAreReportedNotSwallowed) {
  SweepGrid grid = tiny_grid();
  // degree >= nodes makes the topology builder throw for the middle trial.
  grid.degrees = {2, 9, 2};
  grid.seeds = {1, 2};
  SweepOptions options;
  options.threads = 2;
  const SweepReport report = SweepRunner(options).run(grid);
  ASSERT_EQ(report.trials.size(), 6u);
  EXPECT_FALSE(report.all_ok());
  EXPECT_EQ(report.failures, 2u);
  for (const TrialResult& trial : report.trials) {
    if (trial.spec.options.degree == 9) {
      EXPECT_FALSE(trial.ok());
      EXPECT_NE(trial.error.find("degree"), std::string::npos);
    } else {
      EXPECT_TRUE(trial.ok());
      EXPECT_GT(trial.result.final_mean_accuracy, 0.0);
    }
  }
  // Failed rows surface in the CSV with their error, status "failed".
  const std::string path = testing::TempDir() + "sweep_failures.csv";
  report.write_csv(path);
  const std::string bytes = read_file(path);
  EXPECT_NE(bytes.find("failed"), std::string::npos);
  EXPECT_NE(bytes.find("degree"), std::string::npos);
}

TEST(SweepRunner, ReusesDatasetBuildsAcrossTrials) {
  SweepGrid grid = tiny_grid();
  grid.gamma_trains = {1, 2, 3};
  SweepRunner runner;
  const SweepReport report = runner.run(grid);
  EXPECT_TRUE(report.all_ok());
  EXPECT_EQ(runner.cache().size(), 1u);  // three trials, one dataset build
}

TEST(SweepRunner, ConsensusColumnPopulatedWhenTracked) {
  SweepGrid grid = tiny_grid();
  const SweepReport untracked = SweepRunner({.threads = 1}).run(grid);
  ASSERT_TRUE(untracked.all_ok());
  auto cells = ResultSink::csv_row(untracked.trials[0]);
  EXPECT_TRUE(cells[cells.size() - 2].empty());  // final_consensus column

  grid.base.track_consensus = true;
  const SweepReport tracked = SweepRunner({.threads = 1}).run(grid);
  ASSERT_TRUE(tracked.all_ok());
  cells = ResultSink::csv_row(tracked.trials[0]);
  EXPECT_FALSE(cells[cells.size() - 2].empty());
}

TEST(SweepConfig, NegativeIntegersAreRejected) {
  EXPECT_THROW(grid_from_kv({{"rounds", "-1"}}), std::invalid_argument);
  EXPECT_THROW(grid_from_kv({{"seeds", "-3,4"}}), std::invalid_argument);
}

TEST(SweepConfig, SplitListExpandsRanges) {
  const auto tokens = split_list(" 1..3 , 7, 10 ");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0], "1");
  EXPECT_EQ(tokens[2], "3");
  EXPECT_EQ(tokens[3], "7");
  EXPECT_EQ(tokens[4], "10");
  EXPECT_THROW(split_list("5..2"), std::invalid_argument);
}

TEST(SweepConfig, SplitSemicolonListTrimsAndKeepsCommas) {
  const auto tokens =
      split_semicolon_list("  none ;; drop:0.05,corrupt:0.01 ;\tcrash:0.1 ;");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "none");
  EXPECT_EQ(tokens[1], "drop:0.05,corrupt:0.01");
  EXPECT_EQ(tokens[2], "crash:0.1");
  EXPECT_TRUE(split_semicolon_list(" ; ;").empty());
}

TEST(SweepConfig, ParseAlgorithmRoundTrips) {
  for (const auto algorithm :
       {sim::Algorithm::kDpsgd, sim::Algorithm::kDpsgdAllReduce,
        sim::Algorithm::kSkipTrain, sim::Algorithm::kSkipTrainConstrained,
        sim::Algorithm::kGreedy}) {
    EXPECT_EQ(parse_algorithm(algorithm_token(algorithm)), algorithm);
  }
  EXPECT_THROW((void)parse_algorithm("fedavg"), std::invalid_argument);
}

TEST(SweepConfig, GridFromKvBuildsAxesAndBase) {
  const SweepGrid grid = grid_from_kv({{"name", "custom"},
                                       {"dataset", "both"},
                                       {"nodes", "8,16"},
                                       {"algorithms", "skiptrain,dpsgd"},
                                       {"degrees", "2,4"},
                                       {"gamma-train", "1..2"},
                                       {"rounds", "6"},
                                       {"batch", "4"},
                                       {"seeds", "1,2,3"},
                                       {"tuned-gammas", "false"},
                                       {"eval-every", "total/4"},
                                       {"eval-on-validation", "true"}});
  EXPECT_EQ(grid.name, "custom");
  EXPECT_EQ(grid.datasets.size(), 2u);
  EXPECT_EQ(grid.node_counts.size(), 2u);
  EXPECT_EQ(grid.algorithms.size(), 2u);
  EXPECT_EQ(grid.gamma_trains.size(), 2u);
  EXPECT_EQ(grid.base.total_rounds, 6u);
  EXPECT_EQ(grid.base.batch_size, 4u);
  EXPECT_TRUE(grid.base.eval_on_validation);
  EXPECT_FALSE(grid.use_tuned_gammas);
  EXPECT_FALSE(grid.paper_horizon);
  EXPECT_EQ(grid.eval_every_divisor, 4u);
  EXPECT_EQ(grid.trial_count(), 2u * 2u * 3u * 2u * 2u * 2u);
}

TEST(SweepConfig, CodecKeyParsesAxis) {
  const SweepGrid grid =
      grid_from_kv({{"codecs", "identity,fp16,int8,int8-dither"}});
  ASSERT_EQ(grid.codecs.size(), 4u);
  EXPECT_EQ(grid.codecs[0], quant::Codec::kIdentity);
  EXPECT_EQ(grid.codecs[3], quant::Codec::kInt8Dithered);
  EXPECT_EQ(grid.trial_count(), 4u);
  // Singular form and trial expansion.
  const auto trials = grid_from_kv({{"codec", "int8"}}).expand();
  ASSERT_EQ(trials.size(), 1u);
  EXPECT_EQ(trials[0].options.exchange_codec, quant::Codec::kInt8);
  EXPECT_THROW(grid_from_kv({{"codec", "int4"}}), std::invalid_argument);
}

TEST(SweepConfig, UnknownKeyThrows) {
  for (const char* key : {"gamma_train", "round", "Rounds", "", "lr "}) {
    try {
      (void)grid_from_kv({{key, "1"}});
      ADD_FAILURE() << "key '" << key << "' accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("unknown key"), std::string::npos)
          << e.what();
    }
  }
}

TEST(SweepConfig, BadValueThrowsPerKey) {
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"dataset", "mnist"},
      {"nodes", "abc"},
      {"nodes", "-8"},
      {"nodes", "99999999999999999999"},
      {"seeds", "-3,4"},
      {"algorithms", "fedavg"},
      {"degrees", "6,x"},
      {"gamma-train", "5..2"},
      {"gamma-sync", "1..100000"},
      {"sparse-k", "1.5"},
      {"codecs", "int4"},
      {"scenarios", "moon"},
      {"topologies", "ring"},
      {"faults", "drop:2"},
      {"keep-generations", "three"},
      {"rounds", "-1"},
      {"rounds", "abc"},
      {"rounds", "papers"},
      {"local-steps", "1e3"},
      {"batch", ""},
      {"lr", "fast"},
      {"lr", "0.1abc"},
      {"lr", "nan"},
      {"lr", "inf"},
      {"lr", "1e99"},
      {"eval-every", "total/0"},
      {"eval-every", "total/"},
      {"eval-every", "half"},
      {"eval-samples", "-5"},
      {"samples-per-node", "0x10"},
      {"test-pool", "1 2"},
      {"eval-on-validation", "maybe"},
      {"track-consensus", "2"},
      {"evaluate-allreduce", "y"},
      {"scale-budgets", "TRUE"},
      {"checkpoint-every", "-1"},
      {"resume", "sometimes"},
      {"tuned-gammas", "please"},
  };
  for (const auto& [key, value] : bad) {
    EXPECT_THROW((void)grid_from_kv({{key, value}}), std::invalid_argument)
        << key << " = " << value;
  }
}

TEST(SweepConfig, RangesAreBoundedWithoutAllocating) {
  EXPECT_EQ(split_list("1..4096").size(), kMaxRangeValues);
  for (const char* range :
       {"0..18446744073709551615", "1..4097", "5..4000000000"}) {
    try {
      (void)split_list(range);
      ADD_FAILURE() << range << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(range), std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW((void)split_list("0..99999999999999999999"),
               std::invalid_argument);
  PresetParams params;
  params.gamma_max = 4000000000;
  EXPECT_THROW((void)make_preset("fig3", params), std::invalid_argument);
}

TEST(SweepConfig, LaterPairsOverrideEarlierOnes) {
  const SweepGrid grid = grid_from_kv({{"rounds", "paper"},
                                       {"rounds", "30"},
                                       {"eval-every", "total/3"},
                                       {"eval-every", "5"},
                                       {"nodes", "8,16"},
                                       {"nodes", "24"}});
  EXPECT_FALSE(grid.paper_horizon);
  EXPECT_EQ(grid.base.total_rounds, 30u);
  EXPECT_EQ(grid.eval_every_divisor, 0u);
  EXPECT_EQ(grid.base.eval_every, 5u);
  // One node count is the base fleet size, not a one-value axis.
  EXPECT_TRUE(grid.node_counts.empty());
  EXPECT_EQ(grid.data.nodes, 24u);
}

TEST(SweepConfig, LoadGridFileParsesCommentsAndPairs) {
  const std::string path = testing::TempDir() + "grid.conf";
  {
    std::ofstream out(path);
    out << "# gamma sweep\n"
        << "name = filegrid\n"
        << "degrees = 2, 4  # inline comment\n"
        << "gamma-sync = 1..2\n"
        << "\n"
        << "tuned-gammas = true\n";
  }
  const SweepGrid grid = load_grid_file(path);
  EXPECT_EQ(grid.name, "filegrid");
  EXPECT_EQ(grid.degrees.size(), 2u);
  EXPECT_EQ(grid.gamma_syncs.size(), 2u);
  EXPECT_TRUE(grid.use_tuned_gammas);
  EXPECT_THROW(load_grid_file(testing::TempDir() + "missing.conf"),
               std::runtime_error);
  try {
    (void)parse_grid_text("name = x\njunk\n", "mygrid.conf");
    ADD_FAILURE() << "a line without '=' accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("mygrid.conf:2"), std::string::npos)
        << e.what();
  }
}

TEST(SweepConfig, PresetsExpandToTheirPublishedShapes) {
  EXPECT_EQ(make_preset("fig3").trial_count(), 48u);   // 3 deg x 4x4 Γ
  EXPECT_EQ(make_preset("fig5").trial_count(), 12u);   // 2 ds x 2 alg x 3 deg
  EXPECT_EQ(make_preset("fig6").trial_count(), 9u);    // 3 alg x 3 deg
  EXPECT_EQ(make_preset("table3").trial_count(), 12u);
  EXPECT_EQ(make_preset("quant").trial_count(), 64u);  // 4x4 Γ x 4 codecs
  EXPECT_EQ(make_preset("smartphone").trial_count(), 3u);
  EXPECT_THROW(make_preset("fig9"), std::invalid_argument);

  // The fig5 preset couples the tuned Γ pair to the topology degree.
  const auto trials = make_preset("fig5").expand();
  for (const TrialSpec& spec : trials) {
    if (spec.options.algorithm == sim::Algorithm::kSkipTrain) {
      const auto [gamma_train, gamma_sync] =
          tuned_gammas(spec.options.degree);
      EXPECT_EQ(spec.options.gamma_train, gamma_train);
      EXPECT_EQ(spec.options.gamma_sync, gamma_sync);
    }
  }

  // --eval-every overrides every preset's hardcoded cadence.
  PresetParams cadence;
  cadence.eval_every = 7;
  for (const char* name :
       {"fig3", "fig5", "fig6", "table3", "quant", "smartphone"}) {
    const auto cadence_trials = make_preset(name, cadence).expand();
    ASSERT_FALSE(cadence_trials.empty());
    EXPECT_EQ(cadence_trials[0].options.eval_every, 7u) << name;
  }

  // --full swaps in the paper horizon per workload.
  PresetParams params;
  params.full = true;
  for (const TrialSpec& spec : make_preset("table3", params).expand()) {
    EXPECT_EQ(spec.data.nodes, 256u);
    EXPECT_EQ(spec.options.total_rounds,
              energy::workload_spec(spec.options.workload).total_rounds);
    EXPECT_DOUBLE_EQ(spec.options.budget_scale, 1.0);
  }
}


#ifdef SKIPTRAIN_TEST_DATA_DIR
TEST(SweepGolden, Fig3IdentityCodecCsvByteIdenticalToSeed) {
  // The committed golden was produced by the seed kernels (PR 5 base).
  // The blocked GEMM layer sits under every trial's training math, so this
  // pins the whole compute substrate to bit-identical results: a single
  // flipped bit anywhere in gemm/conv/codec changes some accuracy cell
  // and fails the byte compare.
  PresetParams params;
  params.nodes = 12;
  params.rounds = 40;
  SweepGrid grid = make_preset("fig3", params);
  SweepOptions options;
  options.threads = 2;
  SweepRunner runner(options);
  const SweepReport report = runner.run(grid);
  EXPECT_TRUE(report.all_ok());
  const std::string path =
      ::testing::TempDir() + "/golden_fig3_check.csv";
  report.write_csv(path);
  const std::string golden = read_file(
      std::string(SKIPTRAIN_TEST_DATA_DIR) + "/golden_fig3_n12_r40_identity.csv");
  ASSERT_FALSE(golden.empty()) << "golden file missing";
  EXPECT_EQ(read_file(path), golden);
}
#endif  // SKIPTRAIN_TEST_DATA_DIR

}  // namespace
}  // namespace skiptrain::sweep
