// Regenerates Figure 2: the round-pattern schematic of D-PSGD, SkipTrain
// and SkipTrain-constrained for a handful of nodes, by unrolling the
// schedulers. 'T' marks a round where the node trains (+shares), 's' a
// round where it only shares/aggregates.
#include "common.hpp"

namespace {

void print_pattern(const char* title,
                   const skiptrain::core::RoundScheduler& scheduler,
                   std::size_t nodes, std::size_t rounds,
                   const std::vector<std::size_t>& budgets) {
  std::printf("\n%s\n  round:  ", title);
  for (std::size_t t = 1; t <= rounds; ++t) {
    std::printf("%zu", t % 10);
  }
  std::printf("\n");
  for (std::size_t node = 0; node < nodes; ++node) {
    std::printf("  node %zu: ", node + 1);
    std::size_t budget = budgets.empty() ? rounds : budgets[node];
    for (std::size_t t = 1; t <= rounds; ++t) {
      const bool trains = scheduler.should_train(t, node, budget);
      if (trains && budget > 0) --budget;
      std::printf("%c", trains ? 'T' : 's');
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace skiptrain;
  util::ArgParser args("fig2_schedule",
                       "Figure 2: round patterns of the three algorithms");
  args.add_int("rounds", 24, "rounds to unroll");
  args.add_int("gamma-train", 2, "Γtrain");
  args.add_int("gamma-sync", 2, "Γsync");
  bench::parse_flags(args, argc, argv);

  const std::size_t rounds = bench::flag_size(args, "rounds");
  const std::size_t gt = bench::flag_size(args, "gamma-train");
  const std::size_t gs = bench::flag_size(args, "gamma-sync");

  bench::print_header("Figure 2: operations per round, 4 nodes",
                      "T = train+share+aggregate, s = share+aggregate");

  const core::DpsgdScheduler dpsgd;
  print_pattern("(a) D-PSGD", dpsgd, 4, rounds, {});

  const core::SkipTrainScheduler skiptrain(gt, gs);
  print_pattern(("(b) SkipTrain Γtrain=" + std::to_string(gt) +
                 " Γsync=" + std::to_string(gs))
                    .c_str(),
                skiptrain, 4, rounds, {});

  // Heterogeneous budgets make the per-node probabilistic skipping visible.
  const std::vector<std::size_t> budgets{2, 4, 6, 12};
  const core::SkipTrainConstrainedScheduler constrained(gt, gs, rounds,
                                                        budgets, 7);
  print_pattern("(c) SkipTrain-constrained (budgets 2/4/6/12)", constrained, 4,
                rounds, budgets);

  std::printf("\ntraining-round fraction: D-PSGD %.2f, SkipTrain %.2f "
              "(Eq. 4 predicts %.2f)\n",
              core::training_round_fraction(dpsgd, rounds),
              core::training_round_fraction(skiptrain, rounds),
              static_cast<double>(gt) / static_cast<double>(gt + gs));
  return 0;
}
