// Fleet-image checkpointing: round-trip bit-identity across codecs and
// schedulers, kill-at-every-round resume equivalence, the
// truncated/corrupted-image rejection matrix (old asynchronous-engine
// images included), and trial-granular sweep resume.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/fleet_image.hpp"
#include "ckpt/io.hpp"
#include "ckpt/trial_store.hpp"
#include "core/scheduler.hpp"
#include "data/synthetic.hpp"
#include "energy/accountant.hpp"
#include "graph/mixing.hpp"
#include "graph/topology.hpp"
#include "nn/init.hpp"
#include "nn/model_zoo.hpp"
#include "sim/engine.hpp"
#include "sweep/sweep.hpp"

namespace skiptrain {
namespace {

struct Fixture {
  data::FederatedData data;
  nn::Sequential prototype;
  graph::Topology topology;
  graph::MixingMatrix mixing;
  energy::Fleet fleet;

  explicit Fixture(std::size_t nodes, std::size_t degree,
                   std::uint64_t seed = 42)
      : fleet(energy::Fleet::even(nodes, energy::Workload::kCifar10)) {
    data::CifarSynConfig config;
    config.nodes = nodes;
    config.samples_per_node = 12;
    config.test_pool = 40;
    config.seed = seed;
    data = data::make_cifar_synthetic(config);

    prototype = nn::make_mlp(config.feature_dim, {8}, 10);
    util::Rng rng(seed);
    nn::initialize(prototype, rng);

    util::Rng topo_rng(seed + 1);
    topology = graph::make_random_regular(nodes, degree, topo_rng);
    mixing = graph::MixingMatrix::metropolis_hastings(topology);
  }

  energy::EnergyAccountant make_accountant(
      quant::Codec codec = quant::Codec::kIdentity) const {
    std::vector<std::size_t> degrees(fleet.num_nodes());
    for (std::size_t i = 0; i < degrees.size(); ++i) {
      degrees[i] = topology.degree(i);
    }
    return energy::EnergyAccountant(fleet, quant::comm_model_for(codec),
                                    89834, std::move(degrees));
  }

  sim::RoundEngine make_engine(const core::RoundScheduler& scheduler,
                               sim::EngineConfig config = {}) const {
    config.local_steps = 1;
    config.batch_size = 4;
    return sim::RoundEngine(prototype, data, mixing, scheduler,
                            make_accountant(config.exchange_codec), config);
  }
};

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

bool bytes_equal(plane::ConstMatrixView a, plane::ConstMatrixView b) {
  if (a.rows != b.rows || a.dim != b.dim) return false;
  return std::memcmp(a.flat().data(), b.flat().data(),
                     a.rows * a.dim * sizeof(float)) == 0;
}

void expect_accountants_equal(const energy::EnergyAccountant& a,
                              const energy::EnergyAccountant& b) {
  const auto sa = a.capture_state();
  const auto sb = b.capture_state();
  EXPECT_EQ(sa.training_mwh, sb.training_mwh);
  EXPECT_EQ(sa.comm_mwh, sb.comm_mwh);
  EXPECT_EQ(sa.training_rounds, sb.training_rounds);
  EXPECT_EQ(sa.budget, sb.budget);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// --- round-trip fuzz across fleet shapes, codecs, schedulers ---------------

struct EngineVariant {
  const char* label;
  quant::Codec codec;
  std::size_t sparse_k;
};

const EngineVariant kVariants[] = {
    {"dense-identity", quant::Codec::kIdentity, 0},
    {"dense-fp16", quant::Codec::kFp16, 0},
    {"dense-int8d", quant::Codec::kInt8Dithered, 0},
    {"sparse-int8", quant::Codec::kInt8, 7},
    {"sparse-identity", quant::Codec::kIdentity, 5},
};

TEST(FleetImage, RoundTripIsBitIdenticalAcrossCodecsAndSchedulers) {
  const std::string path = temp_path("fleet_roundtrip.sktf");
  const struct {
    std::size_t nodes, degree;
  } shapes[] = {{4, 2}, {6, 3}, {9, 2}};

  for (const auto& shape : shapes) {
    Fixture fixture(shape.nodes, shape.degree);
    std::vector<std::unique_ptr<core::RoundScheduler>> schedulers;
    schedulers.push_back(std::make_unique<core::DpsgdScheduler>());
    schedulers.push_back(std::make_unique<core::SkipTrainScheduler>(2, 1));
    schedulers.push_back(
        std::make_unique<core::SkipTrainConstrainedScheduler>(
            1, 1, 20, std::vector<std::size_t>(shape.nodes, 5), 7));
    schedulers.push_back(std::make_unique<core::GreedyScheduler>());

    for (const auto& scheduler : schedulers) {
      for (const EngineVariant& variant : kVariants) {
        SCOPED_TRACE(std::string(variant.label) + " n=" +
                     std::to_string(shape.nodes) + " " + scheduler->name());
        sim::EngineConfig config;
        config.exchange_codec = variant.codec;
        config.sparse_exchange_k = variant.sparse_k;

        sim::RoundEngine original = fixture.make_engine(*scheduler, config);
        original.run_rounds(4);
        ckpt::save_fleet_image(original, path);

        sim::RoundEngine restored = fixture.make_engine(*scheduler, config);
        ckpt::restore_fleet_image(restored, path);

        EXPECT_EQ(restored.rounds_executed(), 4u);
        EXPECT_TRUE(bytes_equal(original.node_parameters(),
                                restored.node_parameters()));
        expect_accountants_equal(original.accountant(),
                                 restored.accountant());
        // RNG + optimizer state restored bit-exactly: the continuations
        // must stay bitwise identical through more stochastic rounds.
        original.run_rounds(3);
        restored.run_rounds(3);
        EXPECT_TRUE(bytes_equal(original.node_parameters(),
                                restored.node_parameters()));
        expect_accountants_equal(original.accountant(),
                                 restored.accountant());
      }
    }
  }
}

// --- kill-at-every-round resume equivalence --------------------------------

class KillAtEveryRound : public ::testing::TestWithParam<EngineVariant> {};

TEST_P(KillAtEveryRound, ResumedRunMatchesUninterruptedBitwise) {
  const EngineVariant variant = GetParam();
  const std::string path = temp_path("fleet_kill.sktf");
  constexpr std::size_t kTotal = 8;
  Fixture fixture(6, 2);
  const core::SkipTrainScheduler scheduler(2, 1);
  sim::EngineConfig config;
  config.exchange_codec = variant.codec;
  config.sparse_exchange_k = variant.sparse_k;

  sim::RoundEngine reference = fixture.make_engine(scheduler, config);
  reference.run_rounds(kTotal);

  for (std::size_t k = 1; k < kTotal; ++k) {
    SCOPED_TRACE("killed at round " + std::to_string(k));
    // The "crashing" run gets as far as round k and checkpoints.
    sim::RoundEngine victim = fixture.make_engine(scheduler, config);
    victim.run_rounds(k);
    ckpt::save_fleet_image(victim, path);
    // A fresh process restores the image and finishes the run.
    sim::RoundEngine resumed = fixture.make_engine(scheduler, config);
    ckpt::restore_fleet_image(resumed, path);
    resumed.run_rounds(kTotal - k);
    EXPECT_TRUE(bytes_equal(reference.node_parameters(),
                            resumed.node_parameters()));
    expect_accountants_equal(reference.accountant(), resumed.accountant());
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, KillAtEveryRound,
                         ::testing::ValuesIn(kVariants));

TEST(FleetImage, RestoreOverwritesAnEngineThatAlreadyRan) {
  // Re-entering a half-done trial restores into an engine that may have
  // executed rounds of its own; the image must win completely.
  const std::string path = temp_path("fleet_overwrite.sktf");
  Fixture fixture(6, 2);
  const core::DpsgdScheduler scheduler;
  sim::RoundEngine reference = fixture.make_engine(scheduler);
  reference.run_rounds(5);

  sim::RoundEngine source = fixture.make_engine(scheduler);
  source.run_rounds(3);
  ckpt::save_fleet_image(source, path);

  sim::RoundEngine target = fixture.make_engine(scheduler);
  target.run_rounds(2);  // diverged state that must be discarded
  ckpt::restore_fleet_image(target, path);
  EXPECT_EQ(target.rounds_executed(), 3u);
  target.run_rounds(2);
  EXPECT_TRUE(
      bytes_equal(reference.node_parameters(), target.node_parameters()));
  expect_accountants_equal(reference.accountant(), target.accountant());
}

// --- probe + rejection matrix ----------------------------------------------

TEST(FleetImage, ProbeReportsSummaryWithoutRestoring) {
  const std::string path = temp_path("fleet_probe.sktf");
  Fixture fixture(5, 2);
  const core::DpsgdScheduler scheduler;
  sim::RoundEngine engine = fixture.make_engine(scheduler);
  engine.run_rounds(3);
  ckpt::save_fleet_image(engine, path);

  const ckpt::FleetImageInfo info = ckpt::probe_fleet_image(path);
  EXPECT_EQ(info.nodes, 5u);
  EXPECT_EQ(info.dim, fixture.prototype.num_parameters());
  EXPECT_EQ(info.round, 3u);
  EXPECT_FALSE(info.has_experiment);
}

TEST(FleetImage, RejectionMatrix) {
  const std::string path = temp_path("fleet_valid.sktf");
  const std::string bad = temp_path("fleet_bad.sktf");
  Fixture fixture(5, 2);
  const core::SkipTrainScheduler scheduler(2, 1);
  sim::RoundEngine engine = fixture.make_engine(scheduler);
  engine.run_rounds(2);
  ckpt::save_fleet_image(engine, path);
  const std::string valid = read_file(path);
  ASSERT_FALSE(valid.empty());

  const auto expect_rejected = [&](const std::string& bytes,
                                   const char* label) {
    SCOPED_TRACE(label);
    write_file(bad, bytes);
    sim::RoundEngine target = fixture.make_engine(scheduler);
    EXPECT_THROW(ckpt::restore_fleet_image(target, bad),
                 std::runtime_error);
  };

  // Truncations at every structural boundary (and a dense sample of
  // mid-payload cuts).
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{3}, std::size_t{8}, std::size_t{9},
        std::size_t{10}, std::size_t{40}, valid.size() / 2,
        valid.size() - 1}) {
    expect_rejected(valid.substr(0, cut),
                    ("truncated to " + std::to_string(cut)).c_str());
  }
  // Trailing garbage after a complete payload.
  expect_rejected(valid + "x", "one trailing byte");
  expect_rejected(valid + std::string(64, '\0'), "trailing zeros");
  // Corrupted magic / version / engine kind.
  {
    std::string bytes = valid;
    bytes[0] = 'X';
    expect_rejected(bytes, "bad magic");
  }
  {
    std::string bytes = valid;
    bytes[4] = static_cast<char>(0x7f);  // version LSB
    expect_rejected(bytes, "unsupported version");
  }
  // Engine kind byte: 9 was never assigned; 1 was the retired
  // asynchronous engine.
  for (const char kind : {char{9}, char{1}}) {
    std::string bytes = valid;
    bytes[8] = kind;
    expect_rejected(bytes, "unsupported engine kind");
  }
  // Hostile length prefix: blow up the node count field (first u64 of the
  // engine payload) — must throw, not allocate.
  {
    std::string bytes = valid;
    for (std::size_t i = 0; i < 8; ++i) {
      bytes[10 + i] = static_cast<char>(0xff);
    }
    expect_rejected(bytes, "hostile node count");
  }

  // Mismatched construction: wrong scheduler, seed, shape.
  {
    const core::SkipTrainScheduler other(1, 2);
    sim::RoundEngine target = fixture.make_engine(other);
    EXPECT_THROW(ckpt::restore_fleet_image(target, path),
                 std::runtime_error);
  }
  {
    sim::EngineConfig config;
    config.seed = 43;
    sim::RoundEngine target = fixture.make_engine(scheduler, config);
    EXPECT_THROW(ckpt::restore_fleet_image(target, path),
                 std::runtime_error);
  }
  // EVERY outcome-affecting config knob is part of the image identity —
  // a restore into an engine with a different learning rate, local-step
  // count, or batch size must be refused, not silently diverge.
  {
    sim::EngineConfig config;
    config.learning_rate = 0.05f;
    sim::RoundEngine target = fixture.make_engine(scheduler, config);
    EXPECT_THROW(ckpt::restore_fleet_image(target, path),
                 std::runtime_error);
  }
  {
    sim::EngineConfig config;
    config.local_steps = 3;  // fixture default is 1
    sim::RoundEngine target(fixture.prototype, fixture.data, fixture.mixing,
                            scheduler, fixture.make_accountant(), config);
    EXPECT_THROW(ckpt::restore_fleet_image(target, path),
                 std::runtime_error);
  }
  {
    Fixture small(4, 2);
    sim::RoundEngine target = small.make_engine(scheduler);
    EXPECT_THROW(ckpt::restore_fleet_image(target, path),
                 std::runtime_error);
  }
  // Missing file.
  {
    sim::RoundEngine target = fixture.make_engine(scheduler);
    EXPECT_THROW(
        ckpt::restore_fleet_image(target, temp_path("no_such.sktf")),
        std::runtime_error);
  }
}

TEST(FleetImage, RetiredAsyncEngineImagesAreRejectedCleanly) {
  // A small image written by the retired asynchronous engine (engine kind
  // 1, format v2, 4 nodes). Probing or restoring it must fail with a
  // clean "unsupported engine kind" error, never crash or half-restore.
  const std::string path =
      std::string(SKIPTRAIN_TEST_DATA_DIR) + "/async_image_v2.sktf";
  const std::string bytes = read_file(path);
  ASSERT_GT(bytes.size(), 9u);
  ASSERT_EQ(bytes.substr(0, 4), "SKTF");
  ASSERT_EQ(bytes[8], 1);  // engine kind byte

  const auto expect_unsupported_kind = [](const auto& action) {
    try {
      action();
      ADD_FAILURE() << "retired engine kind was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported engine kind 1"),
                std::string::npos)
          << e.what();
    }
  };
  expect_unsupported_kind([&] { (void)ckpt::probe_fleet_image(path); });
  Fixture fixture(4, 2);
  const core::SkipTrainScheduler scheduler(2, 1);
  sim::RoundEngine engine = fixture.make_engine(scheduler);
  expect_unsupported_kind([&] { ckpt::restore_fleet_image(engine, path); });
  EXPECT_EQ(engine.rounds_executed(), 0u);  // untouched by the failure
}

TEST(FleetImage, AtomicWriteKeepsPreviousImageOnFailure) {
  const std::string path = temp_path("fleet_atomic.sktf");
  Fixture fixture(4, 2);
  const core::DpsgdScheduler scheduler;
  sim::RoundEngine engine = fixture.make_engine(scheduler);
  engine.run_rounds(1);
  ckpt::save_fleet_image(engine, path);
  const std::string first = read_file(path);

  // A crash mid-write leaves only the .tmp file behind; the image itself
  // must still hold the previous bytes.
  write_file(path + ".tmp", "partial garbage");
  EXPECT_EQ(read_file(path), first);
  sim::RoundEngine target = fixture.make_engine(scheduler);
  ckpt::restore_fleet_image(target, path);  // still valid
  EXPECT_EQ(target.rounds_executed(), 1u);
}

// --- experiment images through run_experiment ------------------------------

sweep::SweepGrid tiny_grid() {
  sweep::SweepGrid grid;
  grid.name = "ckpt";
  grid.data.nodes = 8;
  grid.data.samples_per_node = 6;
  grid.data.test_pool = 40;
  grid.base.total_rounds = 6;
  grid.base.local_steps = 1;
  grid.base.batch_size = 4;
  grid.base.eval_every = 2;
  grid.base.eval_max_samples = 20;
  grid.base.degree = 2;
  return grid;
}

TEST(ExperimentImage, ResumedRunEmitsByteIdenticalMetricsCsv) {
  const std::string image = temp_path("experiment.sktf");
  std::filesystem::remove(image);
  sweep::DatasetCache cache;
  const auto workload = cache.get(tiny_grid().data);

  sim::RunOptions options = tiny_grid().base;
  options.algorithm = sim::Algorithm::kSkipTrain;
  options.gamma_train = 1;
  options.gamma_sync = 1;
  options.checkpoint_path = image;
  options.checkpoint_every = 2;

  // Uninterrupted run; leaves the round-4 image behind (rounds = 6).
  const sim::ExperimentResult full =
      sim::run_experiment(workload->data, workload->prototype, options);
  ASSERT_TRUE(std::filesystem::exists(image));
  const ckpt::FleetImageInfo info = ckpt::probe_fleet_image(image);
  EXPECT_EQ(info.round, 4u);
  EXPECT_TRUE(info.has_experiment);

  // "Crash after round 4": resume re-enters at round 5 and must
  // reproduce the metrics series byte-for-byte.
  options.resume = true;
  const sim::ExperimentResult resumed =
      sim::run_experiment(workload->data, workload->prototype, options);

  const std::string full_csv = temp_path("experiment_full.csv");
  const std::string resumed_csv = temp_path("experiment_resumed.csv");
  full.recorder.write_csv(full_csv);
  resumed.recorder.write_csv(resumed_csv);
  const std::string bytes = read_file(full_csv);
  EXPECT_FALSE(bytes.empty());
  EXPECT_EQ(bytes, read_file(resumed_csv));
  EXPECT_EQ(full.final_mean_accuracy, resumed.final_mean_accuracy);
  EXPECT_EQ(full.coordinated_training_rounds,
            resumed.coordinated_training_rounds);
  EXPECT_EQ(full.final_per_node_accuracy, resumed.final_per_node_accuracy);
}

TEST(ExperimentImage, StaleImagesAreIgnoredNotResumed) {
  // An in-flight image written under a DIFFERENT configuration (edited
  // grid) or a longer horizon must never contribute resumed state: the
  // run starts fresh and matches a clean run bit-for-bit.
  const std::string image = temp_path("experiment_stale.sktf");
  std::filesystem::remove(image);
  sweep::DatasetCache cache;
  const auto workload = cache.get(tiny_grid().data);

  sim::RunOptions options = tiny_grid().base;
  options.algorithm = sim::Algorithm::kSkipTrain;
  options.gamma_train = 1;
  options.gamma_sync = 1;
  options.checkpoint_path = image;
  options.checkpoint_every = 2;
  options.checkpoint_fingerprint = "config-A";
  (void)sim::run_experiment(workload->data, workload->prototype, options);
  ASSERT_TRUE(std::filesystem::exists(image));  // image at round 4

  // Same path, edited configuration: lr changed, new fingerprint.
  sim::RunOptions edited = options;
  edited.learning_rate = 0.05f;
  edited.checkpoint_fingerprint = "config-B";
  edited.resume = true;
  const sim::ExperimentResult resumed =
      sim::run_experiment(workload->data, workload->prototype, edited);
  sim::RunOptions clean = edited;
  clean.resume = false;
  clean.checkpoint_path.clear();
  const sim::ExperimentResult fresh =
      sim::run_experiment(workload->data, workload->prototype, clean);
  EXPECT_EQ(resumed.final_mean_accuracy, fresh.final_mean_accuracy);
  EXPECT_EQ(resumed.recorder.records().size(),
            fresh.recorder.records().size());

  // Shrunk horizon: image round (4) past total_rounds (3) → fresh run,
  // not an error row.
  sim::RunOptions shorter = options;
  shorter.total_rounds = 3;
  shorter.eval_every = 3;
  shorter.resume = true;
  shorter.checkpoint_path = image;
  const sim::ExperimentResult short_resumed =
      sim::run_experiment(workload->data, workload->prototype, shorter);
  shorter.resume = false;
  shorter.checkpoint_path.clear();
  const sim::ExperimentResult short_fresh =
      sim::run_experiment(workload->data, workload->prototype, shorter);
  EXPECT_EQ(short_resumed.final_mean_accuracy,
            short_fresh.final_mean_accuracy);

  // Corrupt image: the resume must fall back to a fresh run (engine
  // rebuilt, no half-restored state), not throw — one bad file must
  // never permanently poison a trial slot with a failure row.
  write_file(image, "garbage, not a fleet image at all");
  sim::RunOptions corrupt = options;
  corrupt.resume = true;
  const sim::ExperimentResult corrupt_resumed =
      sim::run_experiment(workload->data, workload->prototype, corrupt);
  sim::RunOptions corrupt_fresh = options;
  corrupt_fresh.checkpoint_path.clear();
  const sim::ExperimentResult baseline =
      sim::run_experiment(workload->data, workload->prototype,
                          corrupt_fresh);
  EXPECT_EQ(corrupt_resumed.final_mean_accuracy,
            baseline.final_mean_accuracy);
  EXPECT_EQ(corrupt_resumed.recorder.records().size(),
            baseline.recorder.records().size());
}

// --- sweep-level resume ----------------------------------------------------

TEST(SweepResume, SkipsCompletedTrialsAndKeepsCsvBytes) {
  const std::string dir = temp_path("sweep_ckpt_dir");
  std::filesystem::remove_all(dir);
  sweep::SweepGrid grid = tiny_grid();
  grid.gamma_trains = {1, 2};
  grid.seeds = {1, 2};
  grid.algorithms = {sim::Algorithm::kSkipTrain, sim::Algorithm::kDpsgd};

  // Reference: no checkpointing at all.
  sweep::SweepOptions plain;
  plain.threads = 1;
  const sweep::SweepReport reference = sweep::SweepRunner(plain).run(grid);
  ASSERT_TRUE(reference.all_ok());
  const std::string reference_csv = temp_path("sweep_reference.csv");
  reference.write_csv(reference_csv);
  const std::string reference_bytes = read_file(reference_csv);
  ASSERT_FALSE(reference_bytes.empty());

  // Checkpointed run: same CSV bytes, result files + manifest on disk.
  sweep::SweepOptions checkpointed;
  checkpointed.threads = 2;
  checkpointed.checkpoint_dir = dir;
  checkpointed.checkpoint_every = 2;
  const sweep::SweepReport first =
      sweep::SweepRunner(checkpointed).run(grid);
  ASSERT_TRUE(first.all_ok());
  EXPECT_EQ(first.resumed_trials, 0u);
  const std::string first_csv = temp_path("sweep_first.csv");
  first.write_csv(first_csv);
  EXPECT_EQ(reference_bytes, read_file(first_csv));
  EXPECT_TRUE(std::filesystem::exists(dir + "/manifest.txt"));
  EXPECT_TRUE(
      std::filesystem::exists(ckpt::trial_file_base(dir, 0) + ".result"));

  // Resume with everything complete: all 8 trials load from the store.
  checkpointed.resume = true;
  const sweep::SweepReport resumed =
      sweep::SweepRunner(checkpointed).run(grid);
  ASSERT_TRUE(resumed.all_ok());
  EXPECT_EQ(resumed.resumed_trials, grid.trial_count());
  const std::string resumed_csv = temp_path("sweep_resumed.csv");
  resumed.write_csv(resumed_csv);
  EXPECT_EQ(reference_bytes, read_file(resumed_csv));

  // Simulate a crash that lost one trial's result: only that trial
  // reruns, and the summary still matches byte-for-byte.
  std::filesystem::remove(ckpt::trial_file_base(dir, 3) + ".result");
  const sweep::SweepReport partial =
      sweep::SweepRunner(checkpointed).run(grid);
  ASSERT_TRUE(partial.all_ok());
  EXPECT_EQ(partial.resumed_trials, grid.trial_count() - 1);
  const std::string partial_csv = temp_path("sweep_partial.csv");
  partial.write_csv(partial_csv);
  EXPECT_EQ(reference_bytes, read_file(partial_csv));

  // A persisted FAILURE is retried, not reused: plant a failed result for
  // trial 2 (as a transient error would leave behind) — the resume reruns
  // it, succeeds, and the summary heals to the reference bytes.
  {
    sweep::TrialResult poisoned;
    poisoned.spec = grid.expand()[2];
    poisoned.status = sweep::TrialStatus::kFailed;
    poisoned.error = "transient: out of memory";
    ckpt::write_trial_result(poisoned,
                             ckpt::trial_file_base(dir, 2) + ".result");
  }
  const sweep::SweepReport healed =
      sweep::SweepRunner(checkpointed).run(grid);
  ASSERT_TRUE(healed.all_ok());
  EXPECT_EQ(healed.resumed_trials, grid.trial_count() - 1);
  const std::string healed_csv = temp_path("sweep_healed.csv");
  healed.write_csv(healed_csv);
  EXPECT_EQ(reference_bytes, read_file(healed_csv));
}

TEST(SweepResume, QuarantinesCorruptResultsAndRecomputes) {
  // Regression: a bit-flipped or truncated trial-store entry used to be
  // indistinguishable from "missing" at best and fatal at worst. The
  // runner must classify it kCorrupt, rename it aside as evidence, and
  // recompute the trial — healing the summary to the reference bytes.
  const std::string dir = temp_path("sweep_quarantine_dir");
  std::filesystem::remove_all(dir);
  sweep::SweepGrid grid = tiny_grid();
  grid.gamma_trains = {1, 2};
  grid.seeds = {1, 2};

  sweep::SweepOptions options;
  options.threads = 1;
  options.checkpoint_dir = dir;
  const sweep::SweepReport first = sweep::SweepRunner(options).run(grid);
  ASSERT_TRUE(first.all_ok());
  const std::string reference_csv = temp_path("sweep_quarantine_ref.csv");
  first.write_csv(reference_csv);
  const std::string reference_bytes = read_file(reference_csv);

  // Flip a byte in the middle of trial 1's stored result (past the header,
  // inside the CRC-protected payload) and truncate trial 2's to a prefix.
  const std::string corrupt_path = ckpt::trial_file_base(dir, 1) + ".result";
  std::string bytes = read_file(corrupt_path);
  ASSERT_GT(bytes.size(), 16u);
  bytes[bytes.size() / 2] ^= static_cast<char>(0x40);
  write_file(corrupt_path, bytes);
  const std::string truncated_path =
      ckpt::trial_file_base(dir, 2) + ".result";
  const std::string whole = read_file(truncated_path);
  write_file(truncated_path, whole.substr(0, whole.size() / 3));

  options.resume = true;
  const sweep::SweepReport resumed = sweep::SweepRunner(options).run(grid);
  ASSERT_TRUE(resumed.all_ok());
  EXPECT_EQ(resumed.resumed_trials, grid.trial_count() - 2);

  // The damaged entries were moved aside, not deleted, and the recomputed
  // results took their place on disk.
  EXPECT_TRUE(std::filesystem::exists(corrupt_path + ".bad"));
  EXPECT_TRUE(std::filesystem::exists(truncated_path + ".bad"));
  EXPECT_TRUE(std::filesystem::exists(corrupt_path));
  EXPECT_TRUE(std::filesystem::exists(truncated_path));

  const std::string resumed_csv = temp_path("sweep_quarantine_resumed.csv");
  resumed.write_csv(resumed_csv);
  EXPECT_EQ(reference_bytes, read_file(resumed_csv));

  // A second resume adopts the recomputed entries normally.
  const sweep::SweepReport again = sweep::SweepRunner(options).run(grid);
  ASSERT_TRUE(again.all_ok());
  EXPECT_EQ(again.resumed_trials, grid.trial_count());
}

TEST(FleetImage, EverySingleBitFlipIsRejectedNeverFatal) {
  // The exhaustive corruption matrix over a complete (tiny) fleet image:
  // whichever bit rots on disk, probe and restore must throw a clean
  // ckpt error — never crash, hang, or over-allocate. Section CRCs cover
  // the whole file, so every flip is detectable.
  Fixture fixture(2, 1);
  const core::SkipTrainScheduler scheduler(2, 1);
  sim::RoundEngine engine = fixture.make_engine(scheduler);
  engine.run_rounds(2);
  const std::string path = temp_path("bitflip_image.sktf");
  ckpt::save_fleet_image(engine, path);
  const std::string pristine = read_file(path);
  ASSERT_FALSE(pristine.empty());

  // One shared restore target: a failed restore may leave it partially
  // overwritten, which the next iteration (and the final pristine
  // restore) must tolerate anyway — that IS the crash-recovery contract.
  sim::RoundEngine target = fixture.make_engine(scheduler);
  std::size_t rejected = 0;
  for (std::size_t bit = 0; bit < pristine.size() * 8; ++bit) {
    std::string mutated = pristine;
    mutated[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    write_file(path, mutated);
    bool threw = false;
    try {
      (void)ckpt::probe_fleet_image(path);
      ckpt::restore_fleet_image(target, path);
    } catch (const std::exception&) {
      threw = true;
    }
    EXPECT_TRUE(threw) << "bit " << bit << " of " << pristine.size() * 8;
    if (threw) ++rejected;
  }
  EXPECT_EQ(rejected, pristine.size() * 8);

  // The pristine bytes still restore — the loop never consumed them.
  write_file(path, pristine);
  ckpt::restore_fleet_image(target, path);
  EXPECT_TRUE(
      bytes_equal(engine.node_parameters(), target.node_parameters()));
}

TEST(TrialStore, EverySingleBitFlipIsRejectedNeverFatal) {
  // Same matrix over a trial-store entry: every flip must classify as
  // kStale (fingerprint drift) or kCorrupt (checksum/structure damage) —
  // never kLoaded, never a crash.
  const std::string dir = temp_path("trial_bitflip_dir");
  std::filesystem::create_directories(dir);
  sweep::SweepGrid grid = tiny_grid();
  const sweep::TrialSpec spec = grid.expand().front();
  sweep::TrialResult result;
  result.spec = spec;
  result.result.final_mean_accuracy = 0.625;
  const std::string path = ckpt::trial_file_base(dir, 0) + ".result";
  ckpt::write_trial_result(result, path);
  const std::string pristine = read_file(path);
  ASSERT_FALSE(pristine.empty());

  for (std::size_t bit = 0; bit < pristine.size() * 8; ++bit) {
    std::string mutated = pristine;
    mutated[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    write_file(path, mutated);
    sweep::TrialResult loaded;
    const ckpt::TrialLoadStatus status =
        ckpt::load_trial_result_status(spec, path, loaded);
    EXPECT_TRUE(status == ckpt::TrialLoadStatus::kStale ||
                status == ckpt::TrialLoadStatus::kCorrupt)
        << "bit " << bit << " classified "
        << static_cast<int>(status);
  }

  write_file(path, pristine);
  sweep::TrialResult loaded;
  EXPECT_EQ(ckpt::load_trial_result_status(spec, path, loaded),
            ckpt::TrialLoadStatus::kLoaded);
  EXPECT_EQ(loaded.result.final_mean_accuracy, 0.625);
}

TEST(TrialStore, StaleOrMismatchedResultsForceRerun) {
  const std::string dir = temp_path("trial_store_dir");
  std::filesystem::create_directories(dir);
  sweep::SweepGrid grid = tiny_grid();
  const sweep::TrialSpec spec = grid.expand().front();

  sweep::TrialResult result;
  result.spec = spec;
  result.result.final_mean_accuracy = 0.5;
  const std::string path = ckpt::trial_file_base(dir, 0) + ".result";
  ckpt::write_trial_result(result, path);

  sweep::TrialResult loaded;
  EXPECT_TRUE(ckpt::load_trial_result(spec, path, loaded));
  EXPECT_EQ(loaded.result.final_mean_accuracy, 0.5);

  // Any configuration drift invalidates the stored result.
  sweep::TrialSpec edited = spec;
  edited.options.learning_rate = 0.05f;
  EXPECT_FALSE(ckpt::load_trial_result(edited, path, loaded));
  edited = spec;
  edited.options.exchange_codec = quant::Codec::kFp16;
  EXPECT_FALSE(ckpt::load_trial_result(edited, path, loaded));
  edited = spec;
  edited.data.seed = 99;
  EXPECT_FALSE(ckpt::load_trial_result(edited, path, loaded));

  // Corrupt files force a rerun instead of crashing the sweep.
  write_file(path, "definitely not a trial result");
  EXPECT_FALSE(ckpt::load_trial_result(spec, path, loaded));
  EXPECT_FALSE(
      ckpt::load_trial_result(spec, dir + "/missing.result", loaded));
}

}  // namespace
}  // namespace skiptrain
