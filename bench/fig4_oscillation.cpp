// Regenerates Figure 4: SkipTrain's test-accuracy oscillation near
// convergence when evaluated every round — accuracy drops across training
// rounds (models biased toward local shards) and recovers across
// synchronization rounds, with the std-deviation moving inversely.
#include "common.hpp"

#include "energy/accountant.hpp"
#include "graph/topology.hpp"
#include "sim/engine.hpp"

int main(int argc, char** argv) {
  using namespace skiptrain;
  util::ArgParser args("fig4_oscillation",
                       "Figure 4: per-round train/sync accuracy oscillation");
  bench::add_common_flags(args);
  args.add_int("degree", 6, "topology degree");
  args.add_int("tail", 32, "rounds at the end to evaluate per-round");
  bench::parse_flags(args, argc, argv);

  const bench::Workbench wb = bench::make_cifar_bench(args);
  const sim::RunOptions base = bench::options_from_flags(args, wb);
  const std::size_t degree = bench::flag_size(args, "degree");
  const auto [gamma_train, gamma_sync] = sweep::tuned_gammas(degree);
  const std::size_t tail = bench::flag_size(args, "tail");

  bench::print_header(
      "Figure 4: SkipTrain test accuracy, per-round at the end of training",
      "accuracy falls in train rounds, rises in sync rounds; std inverts");

  // Drive the engine directly so we can evaluate every round in the tail.
  const std::size_t n = wb.data.num_nodes();
  util::Rng topo_rng(util::hash_combine(base.seed, 0x70700000ULL));
  const graph::Topology topology =
      graph::make_random_regular(n, degree, topo_rng);
  const graph::MixingMatrix mixing =
      graph::MixingMatrix::metropolis_hastings(topology);
  const core::SkipTrainScheduler scheduler(gamma_train, gamma_sync);
  const energy::Fleet fleet = energy::Fleet::even(n, wb.workload);
  std::vector<std::size_t> degrees(n, degree);
  energy::EnergyAccountant accountant(
      fleet, energy::CommModel{},
      energy::workload_spec(wb.workload).model_params, std::move(degrees));

  sim::EngineConfig config;
  config.local_steps = base.local_steps;
  config.batch_size = base.batch_size;
  config.learning_rate = base.learning_rate;
  config.seed = base.seed;
  sim::RoundEngine engine(wb.model, wb.data, mixing, scheduler,
                          std::move(accountant), config);

  const metrics::Evaluator evaluator(&wb.data.test, base.eval_max_samples);
  std::vector<nn::Sequential*> models(n);
  for (std::size_t i = 0; i < n; ++i) models[i] = &engine.model(i);

  const std::size_t warmup = base.total_rounds > tail
                                 ? base.total_rounds - tail
                                 : 0;
  engine.run_rounds(warmup);

  util::CsvWriter csv("fig4_oscillation.csv",
                      {"round", "kind", "mean_accuracy", "std_accuracy"});
  util::TablePrinter table({"round", "kind", "acc mean%", "acc std%"});
  for (std::size_t t = warmup + 1; t <= base.total_rounds; ++t) {
    const auto outcome = engine.run_round();
    const auto eval = evaluator.evaluate_fleet(models);
    const char* kind =
        outcome.kind == core::RoundKind::kTraining ? "train" : "sync";
    table.add_row({std::to_string(t), kind,
                   util::fixed(100.0 * eval.accuracy.mean, 2),
                   util::fixed(100.0 * eval.accuracy.stddev, 2)});
    csv.write_row(std::vector<std::string>{
        std::to_string(t), kind,
        util::fixed(100.0 * eval.accuracy.mean, 4),
        util::fixed(100.0 * eval.accuracy.stddev, 4)});
  }
  table.print();

  std::printf("\nexpected shape (paper Fig. 4): accuracy dips across 'train' "
              "stretches and recovers across 'sync' stretches, while the "
              "std-dev does the opposite.\nseries written to "
              "fig4_oscillation.csv\n");
  return 0;
}
