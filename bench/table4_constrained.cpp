// Regenerates Table 4: the energy-constrained setting. For each dataset x
// degree it reports the energy budget/spend and the average test accuracy
// of SkipTrain-constrained, Greedy, and D-PSGD evaluated at equal energy.
//
// Energy budgets are closed-form at paper scale: Σ_i τ_i·e_i with τ from
// Table 2 (498.9 Wh for the CIFAR fleet). The paper's own budget column is
// internally noisy (see README.md, "Energy traces and budgets"); we
// report exact expected spends.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace skiptrain;
  util::ArgParser args("table4_constrained",
                       "Table 4: constrained-setting summary");
  bench::add_common_flags(args);
  args.add_string("dataset", "both", "cifar | femnist | both");
  bench::parse_flags(args, argc, argv);

  struct PaperRow {
    double budget[3];  // per algorithm ordering: constrained, greedy, dpsgd
    double acc[3][3];  // [algorithm][degree]
  };
  const PaperRow paper_cifar{
      {462.7, 463.37, 468.11},
      {{63.50, 63.52, 64.33}, {54.39, 56.57, 57.86}, {51.57, 53.98, 56.36}}};
  const PaperRow paper_femnist{
      {2455.43, 2460.41, 2485.73},
      {{78.27, 78.26, 78.23}, {77.25, 77.45, 77.60}, {77.05, 77.34, 77.54}}};

  std::vector<energy::Workload> workloads;
  const std::string& dataset = args.get_string("dataset");
  if (dataset == "cifar" || dataset == "both") {
    workloads.push_back(energy::Workload::kCifar10);
  }
  if (dataset == "femnist" || dataset == "both") {
    workloads.push_back(energy::Workload::kFemnist);
  }

  // Every workbench reads the flags, so all are built before the banner.
  struct Run {
    bench::Workbench wb;
    sim::RunOptions base;
  };
  std::vector<Run> runs;
  for (const auto workload : workloads) {
    Run run{bench::make_bench(args, workload), {}};
    run.base = bench::options_from_flags(args, run.wb);
    run.base.eval_every = std::max<std::size_t>(run.base.total_rounds / 16, 1);
    runs.push_back(std::move(run));
  }

  bench::print_header("Table 4: energy budget and accuracy, constrained",
                      "SkipTrain-constrained vs Greedy vs D-PSGD");

  util::TablePrinter table({"Algorithm", "Dataset", "Degree", "Budget Wh",
                            "Paper Wh", "Acc% (ours)", "Acc% (paper)"});

  for (const Run& run : runs) {
    const bench::Workbench& wb = run.wb;
    const sim::RunOptions& base = run.base;
    const energy::Workload workload = wb.workload;
    const PaperRow& paper =
        workload == energy::Workload::kCifar10 ? paper_cifar : paper_femnist;

    // Paper-scale fleet budget (256 nodes, canonical τ).
    const double paper_budget_wh =
        energy::Fleet::even(256, workload).total_budget_wh();

    const std::size_t degrees[3] = {6, 8, 10};
    for (int i = 0; i < 3; ++i) {
      const std::size_t degree = degrees[i];
      const auto [gamma_train, gamma_sync] = sweep::tuned_gammas(degree);
      sim::RunOptions options = base;
      options.degree = degree;

      options.algorithm = sim::Algorithm::kSkipTrainConstrained;
      options.gamma_train = gamma_train;
      options.gamma_sync = gamma_sync;
      const auto constrained = sim::run_experiment(wb.data, wb.model, options);

      options.algorithm = sim::Algorithm::kGreedy;
      const auto greedy = sim::run_experiment(wb.data, wb.model, options);

      options.algorithm = sim::Algorithm::kDpsgd;
      const auto dpsgd = sim::run_experiment(wb.data, wb.model, options);
      // D-PSGD is not energy-aware; compare its accuracy at the point
      // where it has consumed the fleet budget.
      const auto dpsgd_at_budget =
          dpsgd.recorder.record_at_energy(constrained.fleet_budget_wh);
      const double dpsgd_acc = dpsgd_at_budget
                                   ? dpsgd_at_budget->mean_accuracy
                                   : dpsgd.final_mean_accuracy;

      const auto add = [&](const std::string& name, double acc,
                           double paper_acc, double paper_budget) {
        table.add_row({name, wb.data.name, std::to_string(degree),
                       util::fixed(paper_budget_wh, 2),
                       util::fixed(paper_budget, 2),
                       util::fixed(100.0 * acc, 2),
                       util::fixed(paper_acc, 2)});
      };
      add("SkipTrain-constrained", constrained.final_mean_accuracy,
          paper.acc[0][i], paper.budget[0]);
      add("Greedy", greedy.final_mean_accuracy, paper.acc[1][i],
          paper.budget[1]);
      add("D-PSGD", dpsgd_acc, paper.acc[2][i], paper.budget[2]);
    }
  }
  table.print();

  std::printf("\nnotes: 'Budget Wh' is the closed-form 256-node fleet budget "
              "Σ τ_i·e_i; the paper's column deviates from it by up to ~7%% "
              "(its own rounding; see EXPERIMENTS.md). Check the accuracy "
              "ordering SkipTrain-constrained > Greedy > D-PSGD.\n");
  return 0;
}
