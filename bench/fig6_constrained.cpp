// Regenerates Figure 6 (and the trajectories behind Table 4): the
// energy-constrained setting. SkipTrain-constrained vs Greedy vs D-PSGD,
// test accuracy against cumulative training energy, with per-node budgets
// τ_i from the smartphone traces (scaled to the bench horizon so budgets
// bind at the same proportion of the run as in the paper).
//
// The 3-algorithm x 3-topology grid is declared once (sweep preset
// "fig6") and executed by the trial-parallel sweep runner.
//
// Expected shape: SkipTrain-constrained > Greedy > D-PSGD at equal energy.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace skiptrain;
  util::ArgParser args("fig6_constrained",
                       "Figure 6: energy-constrained comparison");
  bench::add_common_flags(args);
  bench::add_sweep_flags(args);
  args.add_string("dataset", "cifar", "cifar | femnist | both");
  bench::parse_flags(args, argc, argv);

  sweep::PresetParams params = bench::preset_params_from_flags(args);
  params.dataset = args.get_string("dataset");
  const sweep::SweepGrid grid = bench::make_preset_checked("fig6", params);
  const sweep::SweepOptions sweep_options =
      bench::sweep_options_from_flags(args, grid);

  bench::print_header(
      "Figure 6: SkipTrain-constrained vs Greedy vs D-PSGD",
      "test accuracy vs training energy under per-device budgets");

  const sweep::SweepReport report =
      bench::run_sweep(grid, sweep_options, args.get_string("trace-out"));

  util::CsvWriter csv("fig6_series.csv",
                      {"dataset", "degree", "algorithm", "round",
                       "mean_accuracy", "train_energy_wh"});

  for (const std::string& dataset : grid.datasets) {
    for (const std::size_t degree : grid.degrees) {
      const sweep::TrialResult* trials[3] = {
          bench::require_cell(report, dataset, degree,
                              sim::Algorithm::kSkipTrainConstrained),
          bench::require_cell(report, dataset, degree,
                              sim::Algorithm::kGreedy),
          bench::require_cell(report, dataset, degree,
                              sim::Algorithm::kDpsgd)};

      // A surviving trial's series is always written, even when another
      // algorithm's trial in this cell failed.
      const sweep::TrialResult* first_ok = nullptr;
      for (const sweep::TrialResult* trial : trials) {
        if (trial == nullptr) continue;
        if (first_ok == nullptr) first_ok = trial;
        for (const auto& record : trial->result.recorder.records()) {
          csv.write_row(std::vector<std::string>{
              trial->result.dataset, std::to_string(degree),
              trial->result.algorithm, std::to_string(record.round),
              util::fixed(100.0 * record.mean_accuracy, 4),
              util::fixed(record.train_energy_wh, 4)});
        }
      }
      if (first_ok == nullptr) continue;
      // Every trial in a cell shares the fleet, so any ok trial supplies
      // the budget the equal-energy column compares at.
      const double fleet_budget_wh = first_ok->result.fleet_budget_wh;

      std::printf("\n--- %s, %zu-regular | fleet budget %.2f Wh ---\n",
                  first_ok->result.dataset.c_str(), degree, fleet_budget_wh);
      util::TablePrinter table({"algorithm", "final acc%", "spent Wh",
                                "acc% @ equal energy"});
      for (const sweep::TrialResult* trial : trials) {
        if (trial == nullptr) continue;
        const sim::ExperimentResult& result = trial->result;
        const auto at_budget =
            result.recorder.record_at_energy(fleet_budget_wh);
        const double equal_energy_acc =
            at_budget ? at_budget->mean_accuracy
                      : result.recorder.last().mean_accuracy;
        table.add_row({result.algorithm,
                       util::fixed(100.0 * result.final_mean_accuracy, 2),
                       util::fixed(result.total_training_wh, 2),
                       util::fixed(100.0 * equal_energy_acc, 2)});
      }
      table.print();
    }
  }

  std::printf("\nseries written to fig6_series.csv\n");
  std::printf("paper shape: at equal energy, SkipTrain-constrained > Greedy "
              "> D-PSGD (up to +12%% / +9%% on CIFAR-10).\n");
  return report.all_ok() ? 0 : 1;
}
