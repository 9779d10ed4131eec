// Scenario-engine semantics: hostile trace inputs, harvest determinism,
// battery hysteresis, churn-masked aggregation, and the two determinism
// contracts (thread-count independence and kill-anywhere resume) with a
// scenario active.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
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
#include "obs/registry.hpp"
#include "scenario/scenario.hpp"
#include "scenario/trace.hpp"
#include "sim/engine.hpp"
#include "sweep/result_sink.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace skiptrain {
namespace {

using scenario::FleetScenario;
using scenario::HarvestKind;
using scenario::HarvestTrace;
using scenario::ScenarioConfig;

// --- hostile trace inputs --------------------------------------------------

HarvestTrace parse(const std::string& csv) {
  std::istringstream in(csv);
  return HarvestTrace::parse_csv(in, "test.csv");
}

void expect_parse_error(const std::string& csv, const std::string& needle) {
  try {
    (void)parse(csv);
    FAIL() << "expected parse failure mentioning '" << needle << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual error: " << e.what();
  }
}

TEST(HarvestTraceHostile, EmptyFileIsRejected) {
  expect_parse_error("", "no samples");
  expect_parse_error("time,node,harvest_mwh\n", "no samples");
}

TEST(HarvestTraceHostile, BadHeaderIsRejected) {
  expect_parse_error("when,who,how_much\n0,0,1.0\n", "header");
}

TEST(HarvestTraceHostile, NonMonotonicTimestampsAreRejected) {
  expect_parse_error(
      "time,node,harvest_mwh\n0,0,1.0\n2,0,1.0\n1,0,1.0\n",
      "monotonic");
  // Equal timestamps are just as non-monotonic as decreasing ones.
  expect_parse_error(
      "time,node,harvest_mwh\n3,0,1.0\n3,0,1.0\n", "monotonic");
}

TEST(HarvestTraceHostile, NanAndNegativeHarvestAreRejected) {
  expect_parse_error("time,node,harvest_mwh\n0,0,nan\n", "harvest");
  expect_parse_error("time,node,harvest_mwh\n0,0,inf\n", "harvest");
  expect_parse_error("time,node,harvest_mwh\n0,0,-0.5\n", "harvest");
}

TEST(HarvestTraceHostile, MalformedRowsAreRejected) {
  expect_parse_error("time,node,harvest_mwh\n0,0\n", "fields");
  expect_parse_error("time,node,harvest_mwh\n0,0,1.0,1,junk\n", "fields");
  expect_parse_error("time,node,harvest_mwh\n0,abc,1.0\n", "node");
  expect_parse_error("time,node,harvest_mwh\n0,-1,1.0\n", "node");
  expect_parse_error("time,node,harvest_mwh\n0,0,1.0,2\n", "availability");
}

TEST(HarvestTraceHostile, BinaryTrailingBytesAreRejected) {
  std::string csv = "time,node,harvest_mwh\n0,0,1.0\n";
  csv.push_back('\0');
  csv += "garbage";
  expect_parse_error(csv, "binary");
}

TEST(HarvestTraceHostile, NodeIdGapIsRejected) {
  expect_parse_error("time,node,harvest_mwh\n0,0,1.0\n0,2,1.0\n", "node");
}

TEST(HarvestTrace, ParsesSeriesWithWrapAndAvailability) {
  const HarvestTrace trace = parse(
      "time,node,harvest_mwh,available\n"
      "0,0,1.5,1\n"
      "0,1,0.25,0\n"
      "1,0,2.5,1\n");
  EXPECT_EQ(trace.num_series(), 2u);
  EXPECT_EQ(trace.series_length(0), 2u);
  EXPECT_EQ(trace.series_length(1), 1u);
  EXPECT_DOUBLE_EQ(trace.harvest_mwh(0, 1), 1.5);
  EXPECT_DOUBLE_EQ(trace.harvest_mwh(0, 2), 2.5);
  EXPECT_DOUBLE_EQ(trace.harvest_mwh(0, 3), 1.5);  // series wraps
  EXPECT_DOUBLE_EQ(trace.harvest_mwh(2, 1), 1.5);  // node 2 -> series 0
  EXPECT_FALSE(trace.available(1, 1));
  EXPECT_TRUE(trace.available(0, 1));
}

TEST(HarvestTrace, ContentHashDistinguishesTraces) {
  const HarvestTrace a = parse("time,node,harvest_mwh\n0,0,1.0\n");
  const HarvestTrace b = parse("time,node,harvest_mwh\n0,0,2.0\n");
  const HarvestTrace a2 = parse("time,node,harvest_mwh\n0,0,1.0\n");
  EXPECT_NE(a.content_hash(), b.content_hash());
  EXPECT_EQ(a.content_hash(), a2.content_hash());
}

// --- named configs ---------------------------------------------------------

TEST(ScenarioConfigNames, KnownNamesAndErrors) {
  EXPECT_FALSE(scenario::make_config("").enabled);
  EXPECT_FALSE(scenario::make_config("none").enabled);
  EXPECT_TRUE(scenario::make_config("solar").enabled);
  EXPECT_TRUE(scenario::make_config("churn").enabled);
  EXPECT_THROW((void)scenario::make_config("lunar"), std::invalid_argument);
  EXPECT_THROW((void)scenario::make_config("trace:"), std::invalid_argument);
  EXPECT_THROW((void)scenario::make_config("trace:/no/such/file.csv"),
               std::runtime_error);
  EXPECT_EQ(scenario::scenario_token(""), "none");
  EXPECT_EQ(scenario::scenario_token("solar"), "solar");
}

TEST(ScenarioConfigNames, ConfigHashSeparatesScenarios) {
  EXPECT_EQ(scenario::make_config("none").config_hash(), 0u);
  EXPECT_NE(scenario::make_config("solar").config_hash(),
            scenario::make_config("churn").config_hash());
  EXPECT_EQ(scenario::make_config("solar").config_hash(),
            scenario::make_config("solar").config_hash());
}

TEST(ScenarioConfigNames, ValidateRejectsBrokenConfigs) {
  ScenarioConfig config = scenario::make_config("solar");
  config.dropout_soc = 0.6;
  config.reentry_soc = 0.4;  // inverted hysteresis
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = scenario::make_config("solar");
  config.battery_rounds = 0.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = scenario::make_config("solar");
  config.harvest = HarvestKind::kTrace;  // no trace attached
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

// --- harvest process -------------------------------------------------------

FleetScenario make_fleet(const ScenarioConfig& config, std::size_t nodes,
                         std::uint64_t seed = 42) {
  return FleetScenario(config, nodes, seed,
                       std::vector<double>(nodes, 2.0 /* mWh per round */));
}

TEST(SolarHarvest, IsDeterministicAndZeroAtNight) {
  const ScenarioConfig config = scenario::make_config("solar");
  const FleetScenario a = make_fleet(config, 4);
  const FleetScenario b = make_fleet(config, 4);
  // Pure function of (config, seed, node, t): repeated sampling and a
  // twin fleet agree bit-for-bit.
  for (std::size_t node = 0; node < 4; ++node) {
    for (std::size_t t = 1; t <= 48; ++t) {
      const double sample = a.harvest_sample_mwh(node, t);
      EXPECT_GE(sample, 0.0);
      EXPECT_EQ(sample, a.harvest_sample_mwh(node, t));
      EXPECT_EQ(sample, b.harvest_sample_mwh(node, t));
    }
  }
  // The second half of the diurnal cycle is night: sin(phase) < 0 for
  // t-1 in (period/2, period), so harvest clips to exactly zero.
  for (std::size_t t = 15; t <= 24; ++t) {
    EXPECT_EQ(a.harvest_sample_mwh(0, t), 0.0) << "t=" << t;
  }
  // A different seed changes the sky.
  const FleetScenario c = make_fleet(config, 4, 43);
  bool any_different = false;
  for (std::size_t t = 2; t <= 8; ++t) {
    if (c.harvest_sample_mwh(0, t) != a.harvest_sample_mwh(0, t)) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(Battery, TrySpendDrainsAndBrownsOut) {
  ScenarioConfig config;
  config.enabled = true;
  config.harvest = HarvestKind::kNone;  // battery only
  config.battery_rounds = 2.0;          // capacity = 4 mWh at 2 mWh/round
  config.initial_soc = 1.0;
  config.dropout_soc = 0.0;  // only brownouts take the node down
  config.reentry_soc = 0.0;
  FleetScenario fleet = make_fleet(config, 1);
  EXPECT_DOUBLE_EQ(fleet.capacity_mwh(0), 4.0);
  EXPECT_TRUE(fleet.try_spend(0, 3.0));
  EXPECT_DOUBLE_EQ(fleet.charge_mwh(0), 1.0);
  EXPECT_TRUE(fleet.alive(0));
  // The remaining 1 mWh cannot cover 2 — brownout: drained to zero, down.
  EXPECT_FALSE(fleet.try_spend(0, 2.0));
  EXPECT_DOUBLE_EQ(fleet.charge_mwh(0), 0.0);
  EXPECT_FALSE(fleet.alive(0));
  EXPECT_EQ(fleet.brownouts_total(), 1u);
}

TEST(Battery, HysteresisRequiresTheHigherThresholdToReenter) {
  // Trace: nothing for two steps, then a big delivery.
  auto trace = std::make_shared<const HarvestTrace>(parse(
      "time,node,harvest_mwh\n0,0,0\n1,0,0\n2,0,100\n3,0,0\n"));
  ScenarioConfig config;
  config.enabled = true;
  config.harvest = HarvestKind::kTrace;
  config.trace = trace;
  config.battery_rounds = 10.0;  // capacity 20 mWh
  config.initial_soc = 0.05;     // below dropout from the start
  config.dropout_soc = 0.1;
  config.reentry_soc = 0.5;
  FleetScenario fleet = make_fleet(config, 1);
  fleet.step_node(0, 1);
  EXPECT_FALSE(fleet.alive(0));  // 5% < 10% dropout
  fleet.step_node(0, 2);
  EXPECT_FALSE(fleet.alive(0));  // still nothing harvested
  fleet.step_node(0, 3);         // 100 mWh clips to capacity -> 100% SoC
  EXPECT_TRUE(fleet.alive(0));   // cleared the 50% re-entry bar
  EXPECT_DOUBLE_EQ(fleet.charge_mwh(0), fleet.capacity_mwh(0));
  EXPECT_EQ(fleet.down_steps_total(), 2u);
  EXPECT_EQ(fleet.steps_total(), 3u);
}

TEST(Battery, DutyCycleFlagForcesTheNodeDown) {
  auto trace = std::make_shared<const HarvestTrace>(parse(
      "time,node,harvest_mwh,available\n0,0,5,0\n1,0,5,1\n"));
  ScenarioConfig config;
  config.enabled = true;
  config.harvest = HarvestKind::kTrace;
  config.trace = trace;
  config.initial_soc = 1.0;
  FleetScenario fleet = make_fleet(config, 1);
  fleet.step_node(0, 1);
  EXPECT_FALSE(fleet.alive(0));  // full battery, but the trace says off
  fleet.step_node(0, 2);
  EXPECT_TRUE(fleet.alive(0));
}

TEST(FleetScenarioState, SaveRestoreRoundTripsExactly) {
  const ScenarioConfig config = scenario::make_config("churn");
  FleetScenario original = make_fleet(config, 5);
  for (std::size_t t = 1; t <= 9; ++t) original.begin_round(t);
  (void)original.try_spend(2, 1.5);

  std::stringstream buffer;
  {
    ckpt::ImageWriter writer(buffer);
    original.save_state(writer);
  }
  const std::string bytes = buffer.str();
  FleetScenario restored = make_fleet(config, 5);
  {
    std::istringstream in(bytes);
    ckpt::ImageReader reader(in, bytes.size());
    restored.restore_state(reader);
  }
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(restored.charge_mwh(i), original.charge_mwh(i));
    EXPECT_EQ(restored.alive(i), original.alive(i));
  }
  EXPECT_EQ(restored.steps_total(), original.steps_total());
  EXPECT_EQ(restored.down_steps_total(), original.down_steps_total());
  EXPECT_EQ(restored.brownouts_total(), original.brownouts_total());
  EXPECT_EQ(restored.harvested_mwh_total(), original.harvested_mwh_total());
  // The continuations agree bit-for-bit.
  for (std::size_t t = 10; t <= 14; ++t) {
    original.begin_round(t);
    restored.begin_round(t);
  }
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(restored.charge_mwh(i), original.charge_mwh(i));
    EXPECT_EQ(restored.alive(i), original.alive(i));
  }
}

// --- energy-aware schedulers -----------------------------------------------

TEST(HarvestAwareScheduler, ProbabilityRidesTheDiurnalWave) {
  const core::HarvestAwareSkipTrainScheduler scheduler(
      /*gamma_train=*/1, /*gamma_sync=*/1, /*period_rounds=*/24.0,
      /*participation_floor=*/0.2, /*seed=*/7);
  // Solar noon (t-1 = period/4): sin = 1, probability = 1.
  EXPECT_DOUBLE_EQ(scheduler.probability(7), 1.0);
  // Night (t-1 in the negative half): clipped to the floor.
  EXPECT_DOUBLE_EQ(scheduler.probability(19), 0.2);
  EXPECT_THROW(core::HarvestAwareSkipTrainScheduler(1, 1, 0.0, 0.2, 7),
               std::invalid_argument);
  EXPECT_THROW(core::HarvestAwareSkipTrainScheduler(1, 1, 24.0, 1.5, 7),
               std::invalid_argument);
}

TEST(DecrementalScheduler, ParticipationDecaysWithSpentBudget) {
  const core::DecrementalParticipationScheduler scheduler(
      {10, 10}, /*alpha=*/2.0, /*seed=*/5);
  EXPECT_DOUBLE_EQ(scheduler.probability(0, 10), 1.0);
  EXPECT_DOUBLE_EQ(scheduler.probability(0, 5), 0.25);  // (1/2)^2
  EXPECT_DOUBLE_EQ(scheduler.probability(0, 0), 0.0);
  EXPECT_FALSE(scheduler.should_train(3, 0, 0));
  // Every round is a training round for this scheduler.
  EXPECT_EQ(scheduler.round_kind(1), core::RoundKind::kTraining);
  EXPECT_EQ(scheduler.round_kind(2), core::RoundKind::kTraining);
}

// --- engine integration ----------------------------------------------------

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
    config.samples_per_node = 24;
    config.test_pool = 120;
    config.seed = seed;
    data = data::make_cifar_synthetic(config);

    prototype = nn::make_mlp(config.feature_dim, {12}, 10);
    util::Rng rng(seed);
    nn::initialize(prototype, rng);

    util::Rng topo_rng(seed + 1);
    topology = graph::make_random_regular(nodes, degree, topo_rng);
    mixing = graph::MixingMatrix::metropolis_hastings(topology);
  }

  energy::EnergyAccountant make_accountant() const {
    std::vector<std::size_t> degrees(fleet.num_nodes());
    for (std::size_t i = 0; i < degrees.size(); ++i) {
      degrees[i] = topology.degree(i);
    }
    return energy::EnergyAccountant(fleet, energy::CommModel{}, 89834,
                                    std::move(degrees));
  }

  sim::RoundEngine make_engine(const core::RoundScheduler& scheduler,
                               sim::EngineConfig config = {}) const {
    config.local_steps = 1;
    config.batch_size = 4;
    return sim::RoundEngine(prototype, data, mixing, scheduler,
                            make_accountant(), config);
  }
};

bool bytes_equal(plane::ConstMatrixView a, plane::ConstMatrixView b) {
  if (a.rows != b.rows || a.dim != b.dim) return false;
  return std::memcmp(a.flat().data(), b.flat().data(),
                     a.rows * a.dim * sizeof(float)) == 0;
}

/// A churn config whose batteries actually cycle at engine energy scales:
/// the canonical per-round training energies are tens of mWh, and the
/// "churn" preset's tight battery (6 training rounds) plus sub-unit
/// harvest guarantees mid-run dropouts within a few rounds.
sim::EngineConfig churn_engine_config() {
  sim::EngineConfig config;
  config.scenario = scenario::make_config("churn");
  return config;
}

TEST(ScenarioEngine, StarvedNodesFreezeWhileFedNodesKeepLearning) {
  // Two-series trace: even nodes get an effectively infinite harvest,
  // odd nodes get nothing — they drain their 3-round battery, go down,
  // and (with zero harvest, re-entry unreachable) stay down forever.
  // Their model bytes must freeze exactly while the fed half keeps
  // training and mixing through the masked aggregation path.
  Fixture fixture(8, 3);
  const core::DpsgdScheduler scheduler;
  sim::EngineConfig config;
  config.scenario.enabled = true;
  config.scenario.harvest = HarvestKind::kTrace;
  config.scenario.trace = std::make_shared<const HarvestTrace>(
      parse("time,node,harvest_mwh\n0,0,1000000\n0,1,0\n"));
  config.scenario.battery_rounds = 3.0;
  config.scenario.initial_soc = 1.0;
  config.scenario.dropout_soc = 0.1;
  config.scenario.reentry_soc = 0.5;
  sim::RoundEngine engine = fixture.make_engine(scheduler, config);
  ASSERT_NE(engine.scenario(), nullptr);

  engine.run_rounds(6);
  for (std::size_t i = 0; i < engine.num_nodes(); ++i) {
    EXPECT_EQ(engine.scenario()->alive(i), i % 2 == 0) << "node " << i;
  }
  std::vector<std::vector<float>> frozen(engine.num_nodes());
  for (std::size_t i = 0; i < engine.num_nodes(); ++i) {
    const auto row = engine.node_parameters().row(i);
    frozen[i].assign(row.begin(), row.end());
  }
  engine.run_rounds(6);
  for (std::size_t i = 0; i < engine.num_nodes(); ++i) {
    const auto row = engine.node_parameters().row(i);
    const bool identical = std::memcmp(frozen[i].data(), row.data(),
                                       row.size() * sizeof(float)) == 0;
    if (i % 2 == 1) {
      EXPECT_TRUE(identical) << "starved node " << i << " mutated while down";
    } else {
      EXPECT_FALSE(identical) << "fed node " << i << " stopped learning";
    }
  }
  EXPECT_GT(engine.scenario()->down_steps_total(), 0u);
  EXPECT_LT(engine.scenario()->mean_availability(), 1.0);
  EXPECT_GT(engine.scenario()->harvested_mwh_total(), 0.0);
}

TEST(ScenarioEngine, ChurnedRunIsThreadCountInvariant) {
  Fixture fixture(8, 3);
  const core::SkipTrainScheduler scheduler(2, 1);
  for (const std::size_t sparse_k : {std::size_t{0}, std::size_t{7}}) {
    SCOPED_TRACE("sparse_k=" + std::to_string(sparse_k));
    sim::EngineConfig config = churn_engine_config();
    config.sparse_exchange_k = sparse_k;

    sim::RoundEngine parallel_engine = fixture.make_engine(scheduler, config);
    parallel_engine.run_rounds(16);

    sim::RoundEngine serial_engine = fixture.make_engine(scheduler, config);
    {
      util::ThreadPool::ScopedForceSerial force;
      serial_engine.run_rounds(16);
    }
    EXPECT_TRUE(bytes_equal(parallel_engine.node_parameters(),
                            serial_engine.node_parameters()));
    // The invariance claim is empty unless churn actually fired and the
    // masked aggregation path ran.
    EXPECT_GT(parallel_engine.scenario()->down_steps_total(), 0u);
    EXPECT_EQ(parallel_engine.scenario()->down_steps_total(),
              serial_engine.scenario()->down_steps_total());
    EXPECT_EQ(parallel_engine.scenario()->brownouts_total(),
              serial_engine.scenario()->brownouts_total());
  }
}

/// Changes of the two brownout counters across `run` (telemetry on).
template <typename Run>
std::pair<std::uint64_t, std::uint64_t> brownout_deltas(Run&& run) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const obs::Snapshot before = obs::snapshot();
  run();
  const obs::Snapshot after = obs::snapshot();
  obs::set_enabled(was_enabled);
  const auto delta = [&](const char* name) {
    return after.counter_value(name) - before.counter_value(name);
  };
  return {delta("scenario.brownout.train"), delta("scenario.brownout.radio")};
}

TEST(ScenarioEngine, BrownoutCountersAreThreadCountInvariant) {
  // A solar fleet whose batteries hold less than one exchange: by day
  // every node that is up empties its battery, before the local update
  // in training rounds and at the radio in synchronization rounds.
  Fixture fixture(8, 3);
  const core::SkipTrainScheduler scheduler(2, 1);
  sim::EngineConfig config;
  config.scenario = scenario::make_config("solar");
  config.scenario.battery_rounds = 1e-3;
  constexpr std::size_t kRounds = 24;

  sim::RoundEngine parallel_engine = fixture.make_engine(scheduler, config);
  const auto parallel =
      brownout_deltas([&] { parallel_engine.run_rounds(kRounds); });
  sim::RoundEngine serial_engine = fixture.make_engine(scheduler, config);
  const auto serial = brownout_deltas([&] {
    util::ThreadPool::ScopedForceSerial force;
    serial_engine.run_rounds(kRounds);
  });
  EXPECT_GT(parallel.first, 0u);
  EXPECT_GT(parallel.second, 0u);
  EXPECT_EQ(parallel, serial);
  EXPECT_EQ(parallel.first + parallel.second,
            parallel_engine.scenario()->brownouts_total());

  sim::RoundEngine powered = fixture.make_engine(scheduler);
  const auto none = brownout_deltas([&] { powered.run_rounds(kRounds); });
  EXPECT_EQ(none.first, 0u);
  EXPECT_EQ(none.second, 0u);
}

TEST(ScenarioEngine, AlwaysPoweredScenarioMatchesBaselineBitwise) {
  // A scenario that can never take a node down must leave the model bytes
  // exactly as the scenario-free engine computes them — the all-up fast
  // path is the pre-scenario kernel, not a lookalike.
  Fixture fixture(6, 2);
  const core::SkipTrainScheduler scheduler(2, 1);
  sim::EngineConfig powered;
  powered.scenario = scenario::make_config("solar");
  powered.scenario.battery_rounds = 1e6;  // effectively infinite battery
  powered.scenario.dropout_soc = 0.0;

  sim::RoundEngine baseline = fixture.make_engine(scheduler);
  sim::RoundEngine scenario_run = fixture.make_engine(scheduler, powered);
  baseline.run_rounds(10);
  scenario_run.run_rounds(10);
  ASSERT_NE(scenario_run.scenario(), nullptr);
  EXPECT_EQ(scenario_run.scenario()->down_steps_total(), 0u);
  EXPECT_TRUE(bytes_equal(baseline.node_parameters(),
                          scenario_run.node_parameters()));
}

TEST(ScenarioEngine, KillAnywhereResumeIsBitIdenticalUnderChurn) {
  const std::string path = testing::TempDir() + "scenario_kill.sktf";
  constexpr std::size_t kTotal = 16;
  Fixture fixture(6, 2);
  const core::SkipTrainScheduler scheduler(2, 1);
  const sim::EngineConfig config = churn_engine_config();

  sim::RoundEngine reference = fixture.make_engine(scheduler, config);
  reference.run_rounds(kTotal);
  ASSERT_GT(reference.scenario()->down_steps_total(), 0u);

  for (std::size_t k = 1; k < kTotal; k += 3) {
    SCOPED_TRACE("killed at round " + std::to_string(k));
    sim::RoundEngine victim = fixture.make_engine(scheduler, config);
    victim.run_rounds(k);
    ckpt::save_fleet_image(victim, path);

    sim::RoundEngine resumed = fixture.make_engine(scheduler, config);
    ckpt::restore_fleet_image(resumed, path);
    resumed.run_rounds(kTotal - k);
    EXPECT_TRUE(bytes_equal(reference.node_parameters(),
                            resumed.node_parameters()));
    EXPECT_EQ(reference.scenario()->down_steps_total(),
              resumed.scenario()->down_steps_total());
    EXPECT_EQ(reference.scenario()->harvested_mwh_total(),
              resumed.scenario()->harvested_mwh_total());
  }
}

TEST(ScenarioEngine, ImageFromDifferentScenarioIsRejected) {
  const std::string path = testing::TempDir() + "scenario_identity.sktf";
  Fixture fixture(6, 2);
  const core::DpsgdScheduler scheduler;
  sim::RoundEngine churn_engine =
      fixture.make_engine(scheduler, churn_engine_config());
  churn_engine.run_rounds(3);
  ckpt::save_fleet_image(churn_engine, path);

  // Same construction, different scenario (including none at all).
  sim::EngineConfig solar;
  solar.scenario = scenario::make_config("solar");
  sim::RoundEngine solar_engine = fixture.make_engine(scheduler, solar);
  EXPECT_THROW(ckpt::restore_fleet_image(solar_engine, path),
               std::runtime_error);
  sim::RoundEngine plain_engine = fixture.make_engine(scheduler);
  EXPECT_THROW(ckpt::restore_fleet_image(plain_engine, path),
               std::runtime_error);
}

// --- sweep surface ---------------------------------------------------------

TEST(ScenarioSweep, ScenarioAxisExpandsInnermost) {
  sweep::SweepGrid grid;
  grid.data.nodes = 4;
  grid.seeds = {1, 2};
  grid.scenarios = {"none", "solar", "churn"};
  EXPECT_EQ(grid.trial_count(), 6u);
  const auto trials = grid.expand();
  ASSERT_EQ(trials.size(), 6u);
  EXPECT_EQ(trials[0].options.scenario, "none");
  EXPECT_EQ(trials[1].options.scenario, "solar");
  EXPECT_EQ(trials[2].options.scenario, "churn");
  EXPECT_EQ(trials[3].options.scenario, "none");
  EXPECT_EQ(trials[0].options.seed, 1u);
  EXPECT_EQ(trials[3].options.seed, 2u);
  // Fingerprints must separate the scenario axis, or resumable sweeps
  // would adopt another scenario's checkpoints.
  EXPECT_NE(ckpt::trial_fingerprint(trials[0]),
            ckpt::trial_fingerprint(trials[1]));
  EXPECT_NE(std::string(ckpt::trial_fingerprint(trials[1])).find("|scn=solar"),
            std::string::npos);
}

TEST(ScenarioSweep, CsvSchemaGainsColumnsOnlyWhenScenariosRun) {
  const auto& plain = sweep::ResultSink::csv_header(false, false);
  const auto& with_scenario = sweep::ResultSink::csv_header(false, true);
  EXPECT_EQ(std::count(plain.begin(), plain.end(), "scenario"), 0);
  EXPECT_EQ(std::count(plain.begin(), plain.end(), "availability"), 0);
  EXPECT_EQ(std::count(with_scenario.begin(), with_scenario.end(),
                       "scenario"), 1);
  EXPECT_EQ(std::count(with_scenario.begin(), with_scenario.end(),
                       "availability"), 1);
  EXPECT_EQ(with_scenario.size(), plain.size() + 2);

  sweep::TrialResult row;
  row.spec.options.scenario = "churn";
  row.result.mean_availability = 0.75;
  const auto cells = sweep::ResultSink::csv_row(row, false, true);
  ASSERT_EQ(cells.size(), with_scenario.size());
  const auto scenario_col = static_cast<std::size_t>(
      std::find(with_scenario.begin(), with_scenario.end(), "scenario") -
      with_scenario.begin());
  const auto avail_col = static_cast<std::size_t>(
      std::find(with_scenario.begin(), with_scenario.end(), "availability") -
      with_scenario.begin());
  EXPECT_EQ(cells[scenario_col], "churn");
  EXPECT_EQ(cells[avail_col], "0.75");

  // Failed rows keep the schema width.
  sweep::TrialResult failed;
  failed.spec.options.scenario = "churn";
  failed.status = sweep::TrialStatus::kFailed;
  failed.error = "boom";
  EXPECT_EQ(sweep::ResultSink::csv_row(failed, false, true).size(),
            with_scenario.size());
}

}  // namespace
}  // namespace skiptrain
