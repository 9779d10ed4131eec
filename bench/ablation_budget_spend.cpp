// Ablation: why does SkipTrain-constrained spend measurably LESS than the
// fleet budget (the §4.6 / Table 4 energy gap)? Because each node's
// realized training count is min(Binomial(T_train, p_i), τ_i), whose mean
// is strictly below τ_i when p_i < 1. This bench computes the closed-form
// budget, the Greedy spend, and a Monte-Carlo estimate of the constrained
// spend at full 256-node paper scale — no learning simulation needed.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace skiptrain;
  util::ArgParser args("ablation_budget_spend",
                       "expected energy spend under budget mechanisms");
  args.add_int("trials", 200, "Monte-Carlo trials");
  args.add_int("seed", 42, "seed");
  bench::parse_flags(args, argc, argv);

  const std::size_t trials = bench::flag_size(args, "trials");
  util::Rng rng(bench::flag_seed(args));

  bench::print_header(
      "Ablation: budget vs realized spend (binomial under-spend)",
      "explains Table 4's spend < budget for SkipTrain-constrained");

  util::TablePrinter table({"workload", "Γt/Γs", "budget Wh", "greedy Wh",
                            "constrained Wh (MC)", "under-spend %"});

  struct Config {
    energy::Workload workload;
    std::size_t gamma_train, gamma_sync, total_rounds;
  };
  const Config configs[] = {
      {energy::Workload::kCifar10, 4, 4, 1000},
      {energy::Workload::kCifar10, 4, 2, 1000},
      {energy::Workload::kFemnist, 4, 4, 3000},
  };

  for (const Config& config : configs) {
    const energy::Fleet fleet = energy::Fleet::even(256, config.workload);
    const double budget_wh = fleet.total_budget_wh();

    const std::size_t t_train = core::count_training_rounds(
        config.gamma_train, config.gamma_sync, config.total_rounds);
    const double t_train_expected = core::expected_training_rounds(
        config.gamma_train, config.gamma_sync, config.total_rounds);

    // Greedy: every node trains min(τ_i, T) rounds (T = total rounds here,
    // all of which are training rounds for Greedy).
    double greedy_mwh = 0.0;
    for (std::size_t node = 0; node < fleet.num_nodes(); ++node) {
      const std::size_t trained =
          std::min(fleet.budget_rounds(node), config.total_rounds);
      greedy_mwh += fleet.training_energy_mwh(node) *
                    static_cast<double>(trained);
    }

    // SkipTrain-constrained: Monte-Carlo of min(Bin(T_train, p_i), τ_i).
    double constrained_mwh = 0.0;
    for (std::size_t trial = 0; trial < trials; ++trial) {
      for (std::size_t node = 0; node < fleet.num_nodes(); ++node) {
        const std::size_t tau = fleet.budget_rounds(node);
        const double p = core::training_probability(tau, t_train_expected);
        std::size_t trained = 0;
        for (std::size_t t = 0; t < t_train && trained < tau; ++t) {
          if (rng.bernoulli(p)) ++trained;
        }
        constrained_mwh += fleet.training_energy_mwh(node) *
                           static_cast<double>(trained);
      }
    }
    constrained_mwh /= static_cast<double>(trials);

    const double greedy_wh = greedy_mwh / 1000.0;
    const double constrained_wh = constrained_mwh / 1000.0;
    table.add_row(
        {energy::workload_name(config.workload),
         std::to_string(config.gamma_train) + "/" +
             std::to_string(config.gamma_sync),
         util::fixed(budget_wh, 2), util::fixed(greedy_wh, 2),
         util::fixed(constrained_wh, 2),
         util::fixed(100.0 * (1.0 - constrained_wh / budget_wh), 2)});
  }
  table.print();

  std::printf(
      "\npaper CIFAR Table 4 row: budget column 462.7-468.1 Wh vs our exact "
      "budget 498.9 Wh — the binomial under-spend above accounts for the "
      "bulk of that gap (nodes with p_i < 1 rarely hit τ_i exactly).\n");
  return 0;
}
