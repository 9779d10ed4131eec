#include "sim/runner.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "ckpt/fleet_image.hpp"
#include "ckpt/io.hpp"
#include "energy/fleet.hpp"
#include "fault/fault.hpp"
#include "graph/sparse.hpp"
#include "graph/topology.hpp"
#include "metrics/consensus.hpp"
#include "metrics/evaluator.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace skiptrain::sim {

const char* algorithm_name(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kDpsgd:
      return "D-PSGD";
    case Algorithm::kDpsgdAllReduce:
      return "D-PSGD+AllReduce";
    case Algorithm::kSkipTrain:
      return "SkipTrain";
    case Algorithm::kSkipTrainConstrained:
      return "SkipTrain-constrained";
    case Algorithm::kGreedy:
      return "Greedy";
    case Algorithm::kSkipTrainHarvest:
      return "SkipTrain-harvest";
    case Algorithm::kDealDecremental:
      return "DEAL-decremental";
  }
  return "?";
}

namespace {

std::unique_ptr<core::RoundScheduler> make_scheduler(
    const RunOptions& options, const energy::Fleet& fleet,
    const scenario::ScenarioConfig& scenario_config) {
  switch (options.algorithm) {
    case Algorithm::kDpsgd:
    case Algorithm::kDpsgdAllReduce:
      return std::make_unique<core::DpsgdScheduler>();
    case Algorithm::kSkipTrain:
      return std::make_unique<core::SkipTrainScheduler>(options.gamma_train,
                                                        options.gamma_sync);
    case Algorithm::kSkipTrainConstrained: {
      std::vector<std::size_t> budgets(fleet.num_nodes());
      for (std::size_t i = 0; i < fleet.num_nodes(); ++i) {
        budgets[i] = fleet.budget_rounds(i);
      }
      return std::make_unique<core::SkipTrainConstrainedScheduler>(
          options.gamma_train, options.gamma_sync, options.total_rounds,
          std::move(budgets), options.seed);
    }
    case Algorithm::kGreedy:
      return std::make_unique<core::GreedyScheduler>();
    case Algorithm::kSkipTrainHarvest: {
      // Align the participation wave with the scenario's diurnal cycle
      // when one is active; otherwise assume the default solar period.
      const double period = scenario_config.enabled
                                ? scenario_config.period_rounds
                                : scenario::ScenarioConfig{}.period_rounds;
      return std::make_unique<core::HarvestAwareSkipTrainScheduler>(
          options.gamma_train, options.gamma_sync, period,
          /*participation_floor=*/0.15, options.seed);
    }
    case Algorithm::kDealDecremental: {
      std::vector<std::size_t> budgets(fleet.num_nodes());
      for (std::size_t i = 0; i < fleet.num_nodes(); ++i) {
        budgets[i] = fleet.budget_rounds(i);
      }
      return std::make_unique<core::DecrementalParticipationScheduler>(
          std::move(budgets), /*alpha=*/1.0, options.seed);
    }
  }
  throw std::invalid_argument("make_scheduler: unknown algorithm");
}

}  // namespace

ExperimentResult run_experiment(const data::FederatedData& data,
                                const nn::Sequential& prototype,
                                const RunOptions& options) {
  const std::size_t n = data.num_nodes();
  if (n == 0) throw std::invalid_argument("run_experiment: no nodes");
  const std::uint64_t setup_start = obs::now_ns();

  // --- Topology & mixing -------------------------------------------------
  // Dense (the default) keeps the paper's materialized random d-regular
  // graph; kregular/csr build the same Metropolis–Hastings matrix from an
  // O(n·k) graph without materializing it. Exchange energy is billed from
  // the ACTUAL per-node neighbor count either way.
  const graph::TopologySpec topo_spec =
      graph::TopologySpec::parse(options.topology);
  graph::MixingMatrix mixing;
  std::vector<std::size_t> degrees(n);
  std::uint64_t topology_hash = 0;
  if (topo_spec.kind == graph::TopologySpec::Kind::kDense) {
    util::Rng topo_rng(util::hash_combine(options.seed, 0x70700000ULL));
    const graph::Topology topology =
        graph::make_random_regular(n, options.degree, topo_rng);
    mixing = options.algorithm == Algorithm::kDpsgdAllReduce
                 ? graph::MixingMatrix::all_reduce(n)
                 : graph::MixingMatrix::metropolis_hastings(topology);
    for (std::size_t i = 0; i < n; ++i) degrees[i] = topology.degree(i);
  } else {
    if (options.algorithm == Algorithm::kDpsgdAllReduce) {
      throw std::invalid_argument(
          "run_experiment: allreduce requires topology=dense");
    }
    if (topo_spec.kind == graph::TopologySpec::Kind::kKRegular) {
      const graph::ImplicitKRegular implicit(
          n, topo_spec.k, util::hash_combine(options.seed, 0x6b726700ULL));
      mixing = graph::MixingMatrix::metropolis_hastings(implicit);
      topology_hash = implicit.config_hash();
    } else {
      const graph::CsrGraph csr = graph::CsrGraph::load_file(topo_spec.path);
      if (csr.num_nodes() != n) {
        throw std::invalid_argument(
            "run_experiment: csr topology has " +
            std::to_string(csr.num_nodes()) + " nodes, dataset has " +
            std::to_string(n));
      }
      mixing = graph::MixingMatrix::metropolis_hastings(csr);
      topology_hash = util::hash_combine(0x637372ULL, csr.content_hash());
    }
    for (std::size_t i = 0; i < n; ++i) degrees[i] = mixing.degree(i);
  }

  // --- Energy ------------------------------------------------------------
  // Training energies and budgets use the paper's canonical traces; comm
  // energy is charged on the paper's model size |x| so that the reported
  // Wh live on the paper's scale even for the compact simulation model.
  const energy::Fleet fleet =
      energy::Fleet::even(n, options.workload)
          .with_budget_scale(options.budget_scale);
  const energy::WorkloadSpec& spec = energy::workload_spec(options.workload);
  // The comm model bills at the codec's true wire bytes per parameter.
  energy::EnergyAccountant accountant(
      fleet, quant::comm_model_for(options.exchange_codec),
      spec.model_params, std::move(degrees));

  // --- Scheduler & engine -------------------------------------------------
  const scenario::ScenarioConfig scenario_config =
      scenario::make_config(options.scenario);
  const std::unique_ptr<core::RoundScheduler> scheduler =
      make_scheduler(options, fleet, scenario_config);
  EngineConfig engine_config;
  engine_config.local_steps = options.local_steps;
  engine_config.batch_size = options.batch_size;
  engine_config.learning_rate = options.learning_rate;
  engine_config.seed = options.seed;
  engine_config.sparse_exchange_k = options.sparse_exchange_k;
  engine_config.exchange_codec = options.exchange_codec;
  engine_config.scenario = scenario_config;
  engine_config.topology_hash = topology_hash;
  const fault::FaultPlan fault_plan = fault::make_plan(options.faults);
  engine_config.faults = fault_plan;
  // IO chaos applies to THIS run's checkpoint writes: atomic_write draws
  // per-attempt failures from (seed, path, attempt) and retries with
  // deterministic virtual-time backoff.
  const ckpt::IoFaultPolicy io_policy{fault_plan, options.seed};
  const ckpt::IoFaultPolicy* io_faults =
      fault_plan.io_faults() ? &io_policy : nullptr;
  // The engine lives in an optional so an aborted checkpoint restore can
  // rebuild it from scratch (restore mutates state section by section; a
  // file corrupted past the header could otherwise leave a half-restored
  // engine behind).
  std::optional<RoundEngine> engine_slot;
  const auto build_engine = [&] {
    energy::EnergyAccountant engine_accountant = accountant;
    engine_slot.emplace(prototype, data, mixing, *scheduler,
                        std::move(engine_accountant), engine_config);
  };
  build_engine();

  ExperimentResult result;
  obs::note_phase(result.telemetry.phases, obs::Phase::kSetup, setup_start);
  result.coordinated_training_rounds = 0;
  std::vector<metrics::RoundRecord> restored_records;

  // --- Resume from a fleet image -----------------------------------------
  // The engine was constructed exactly as the checkpointed run's was
  // (everything is a pure function of `options` and the dataset), so
  // restoring its mutable state and the recorder series continues the
  // run bit-exactly: rounds k+1..T and the resulting CSVs are
  // byte-identical to the uninterrupted run. An UNUSABLE image never
  // resumes and never fails the run — it falls back to a fresh start:
  //   * stale fingerprint (edited configuration) or round counter past
  //     this run's horizon: detected before any engine state is touched
  //     (the probe is a cheap header read; restore validates the
  //     fingerprint ahead of the engine payload);
  //   * corrupt / truncated / version-mismatched image: the exception is
  //     swallowed and the engine rebuilt, so one bad file cannot poison
  //     the trial with a permanent failure row.
  // Generations are tried newest first (checkpoint_path, .g1, .g2, ...);
  // a corrupt or torn image costs at most checkpoint_every rounds — the
  // next older generation resumes the run instead of a full restart.
  std::size_t start_round = 0;
  const std::size_t keep_generations =
      std::max<std::size_t>(options.keep_generations, 1);
  if (options.resume && !options.checkpoint_path.empty()) {
    obs::PhaseScope restore_scope(result.telemetry.phases,
                                  obs::Phase::kCheckpoint);
    for (const std::string& candidate :
         ckpt::generation_paths(options.checkpoint_path, keep_generations)) {
      if (!std::filesystem::exists(candidate)) continue;
      try {
        const ckpt::FleetImageInfo info = ckpt::probe_fleet_image(candidate);
        ckpt::ExperimentState state;
        // Strict <: an image AT the horizon would skip the main loop and
        // its final-round evaluation entirely (empty per-node accuracies).
        // Normal crash images always sit below the horizon anyway — the
        // writer never checkpoints the final round.
        if (info.round < options.total_rounds &&
            ckpt::restore_experiment_image(*engine_slot, state, candidate,
                                           options.checkpoint_fingerprint)) {
          start_round = engine_slot->rounds_executed();
          restored_records = std::move(state.records);
          result.coordinated_training_rounds =
              static_cast<std::size_t>(state.coordinated_training_rounds);
        }
        // Either resumed, or the image is stale (edited configuration) /
        // past the horizon — older generations share its configuration,
        // so a fresh start beats walking further back.
        break;
      } catch (const std::exception& e) {
        std::fprintf(stderr,
                     "run_experiment: ignoring unusable checkpoint %s (%s); "
                     "trying previous generation\n",
                     candidate.c_str(), e.what());
        start_round = 0;
        restored_records.clear();
        result.coordinated_training_rounds = 0;
        build_engine();
      }
    }
  }
  RoundEngine& engine = *engine_slot;

  // --- Evaluation --------------------------------------------------------
  const data::Dataset* eval_split =
      options.eval_on_validation ? &data.validation : &data.test;
  metrics::Evaluator evaluator(eval_split, options.eval_max_samples);
  std::vector<nn::Sequential*> model_ptrs(n);
  for (std::size_t i = 0; i < n; ++i) model_ptrs[i] = &engine.model(i);

  const std::size_t eval_every =
      options.eval_every != 0
          ? options.eval_every
          : (options.algorithm == Algorithm::kSkipTrain ||
             options.algorithm == Algorithm::kSkipTrainConstrained
                 ? options.gamma_train + options.gamma_sync
                 : 8);

  result.algorithm = scheduler->name();
  result.dataset = data.name;
  result.nodes = n;
  result.degree = options.degree;
  result.fleet_budget_wh = fleet.total_budget_wh();
  result.recorder = metrics::Recorder(std::string(algorithm_name(
                                          options.algorithm)) +
                                      " on " + data.name);
  for (const metrics::RoundRecord& record : restored_records) {
    result.recorder.add(record);
  }

  std::vector<double> last_per_node;
  const auto evaluate_now = [&](std::size_t round, core::RoundKind kind,
                                std::size_t trained) {
    obs::PhaseScope eval_scope(result.telemetry.phases, obs::Phase::kEval);
    metrics::RoundRecord record;
    record.round = round;
    record.training_round = (kind == core::RoundKind::kTraining);
    const auto fleet_eval = evaluator.evaluate_fleet(model_ptrs);
    record.mean_accuracy = fleet_eval.accuracy.mean;
    record.std_accuracy = fleet_eval.accuracy.stddev;
    last_per_node = fleet_eval.per_node;
    if (options.evaluate_allreduce) {
      record.allreduce_accuracy =
          evaluator.evaluate_average(prototype, engine.node_parameters())
              .accuracy;
    }
    if (options.track_consensus) {
      record.consensus = metrics::consensus_distance(engine.node_parameters());
    }
    record.train_energy_wh = engine.accountant().total_training_wh();
    record.comm_energy_wh = engine.accountant().total_comm_wh();
    record.nodes_trained = trained;
    result.recorder.add(record);
  };

  // --- Main loop (Algorithm 2's for t = 1..T) ------------------------------
  for (std::size_t t = start_round + 1; t <= options.total_rounds; ++t) {
    const RoundEngine::RoundOutcome outcome = engine.run_round();
    if (outcome.kind == core::RoundKind::kTraining) {
      ++result.coordinated_training_rounds;
    }
    if (t % eval_every == 0 || t == options.total_rounds) {
      evaluate_now(t, outcome.kind, outcome.nodes_trained);
    }
    // Checkpoint after the round's evaluation so the image carries every
    // recorder row up to round t. The final round is never checkpointed —
    // the caller persists the finished result instead.
    if (!options.checkpoint_path.empty() && options.checkpoint_every != 0 &&
        t % options.checkpoint_every == 0 && t < options.total_rounds) {
      obs::PhaseScope ckpt_scope(result.telemetry.phases,
                                 obs::Phase::kCheckpoint);
      const ckpt::ExperimentState state{
          result.recorder.records(),
          static_cast<std::uint64_t>(result.coordinated_training_rounds),
          options.checkpoint_fingerprint};
      // Vacate the newest slot first (path -> .g1 -> .g2 ...) so a torn
      // write can only cost the image being written, never an older one.
      ckpt::rotate_generations(options.checkpoint_path, keep_generations);
      ckpt::save_experiment_image(engine, state, options.checkpoint_path,
                                  io_faults);
    }
  }

  const metrics::RoundRecord& last = result.recorder.last();
  result.final_mean_accuracy = last.mean_accuracy;
  result.final_std_accuracy = last.std_accuracy;
  result.final_allreduce_accuracy = last.allreduce_accuracy;
  result.best_mean_accuracy = result.recorder.best_mean_accuracy();
  result.total_training_wh = engine.accountant().total_training_wh();
  result.total_comm_wh = engine.accountant().total_comm_wh();
  if (const scenario::FleetScenario* scn = engine.scenario()) {
    result.mean_availability = scn->mean_availability();
    result.down_node_rounds = scn->down_steps_total();
    result.harvested_wh = scn->harvested_mwh_total() / 1000.0;
  }
  {
    const fault::FaultStats& fs = engine.fault_stats();
    result.dropped_messages = static_cast<std::size_t>(fs.dropped);
    result.corrupt_messages = static_cast<std::size_t>(fs.corrupt);
    result.duplicated_messages = static_cast<std::size_t>(fs.duplicated);
    result.crash_down_rounds = static_cast<std::size_t>(fs.crash_down_rounds);
    if (fs.attempted_deliveries != 0) {
      result.delivery_rate =
          static_cast<double>(fs.attempted_deliveries - fs.dropped -
                              fs.corrupt) /
          static_cast<double>(fs.attempted_deliveries);
    }
  }
  result.final_per_node_accuracy = std::move(last_per_node);
  // Fold the engine's per-round phase times into the trial's telemetry.
  // rounds counts only the rounds THIS process executed (resume skips the
  // restored prefix), matching the phase times, which are also fresh-only.
  result.telemetry.phases.merge(engine.phase_stats());
  result.telemetry.wire_bytes = engine.wire_bytes_sent();
  result.telemetry.rounds = engine.rounds_executed() - start_round;
  return result;
}

}  // namespace skiptrain::sim
