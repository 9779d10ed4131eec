// Ablation for §5.1 (bias toward high-energy-capacity devices): under
// SkipTrain-constrained, low-budget devices skip more training rounds and
// contribute less. This bench groups final per-node accuracy by device
// type and reports the fairness gap, alongside each device's realized
// training participation.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace skiptrain;
  util::ArgParser args("ablation_fairness",
                       "§5.1: accuracy by device class under budgets");
  bench::add_common_flags(args);
  args.add_int("degree", 6, "topology degree");
  bench::parse_flags(args, argc, argv);

  const bench::Workbench wb = bench::make_cifar_bench(args);
  sim::RunOptions options = bench::options_from_flags(args, wb);
  options.algorithm = sim::Algorithm::kSkipTrainConstrained;
  options.degree = bench::flag_size(args, "degree");

  bench::print_header(
      "Ablation: per-device fairness under SkipTrain-constrained",
      "do low-budget devices end up with worse models?");
  const auto [gamma_train, gamma_sync] =
      sweep::tuned_gammas(options.degree);
  options.gamma_train = gamma_train;
  options.gamma_sync = gamma_sync;
  options.eval_every = options.total_rounds;

  const auto result = sim::run_experiment(wb.data, wb.model, options);
  const energy::Fleet fleet =
      energy::Fleet::even(wb.data.num_nodes(), wb.workload)
          .with_budget_scale(options.budget_scale);

  const auto& traces = energy::smartphone_traces();
  std::vector<util::RunningStat> accuracy_by_device(traces.size());
  for (std::size_t node = 0; node < result.final_per_node_accuracy.size();
       ++node) {
    accuracy_by_device[fleet.device_index(node)].add(
        result.final_per_node_accuracy[node]);
  }

  util::TablePrinter table({"device", "tau (scaled)", "p_i", "mean acc%",
                            "std acc%"});
  const double t_train = core::expected_training_rounds(
      gamma_train, gamma_sync, options.total_rounds);
  double min_acc = 1.0, max_acc = 0.0;
  for (std::size_t d = 0; d < traces.size(); ++d) {
    // Representative node of this device class.
    std::size_t node = d;  // Fleet::even assigns device i%4
    const std::size_t tau = fleet.budget_rounds(node);
    const double p = core::training_probability(tau, t_train);
    const double mean_acc = accuracy_by_device[d].mean();
    min_acc = std::min(min_acc, mean_acc);
    max_acc = std::max(max_acc, mean_acc);
    table.add_row({traces[d].profile.name, std::to_string(tau),
                   util::fixed(p, 3),
                   util::fixed(100.0 * mean_acc, 2),
                   util::fixed(100.0 * accuracy_by_device[d].stddev(), 2)});
  }
  table.print();

  std::printf("\nfairness gap (max - min device-class accuracy): %.2f%%\n",
              100.0 * (max_acc - min_acc));
  std::printf("fleet mean accuracy: %.2f%% (std %.2f%%)\n",
              100.0 * result.final_mean_accuracy,
              100.0 * result.final_std_accuracy);
  std::printf("\n§5.1's concern: devices with smaller budgets (higher skip "
              "rates) may converge to worse models; synchronization rounds "
              "mitigate but may not erase the gap.\n");
  return 0;
}
