// Regenerates Table 3: training energy and average test accuracy of
// SkipTrain vs D-PSGD on both datasets across 6/8/10-regular topologies.
//
// The 2x3x2 grid is declared once (sweep preset "table3") and executed by
// the trial-parallel sweep runner.
//
// Energy columns are reported at PAPER scale (256 nodes, T=1000/3000) —
// they are closed-form under the trace model and match the paper's printed
// digits, except FEMNIST D-PSGD (14914.39 vs 14914.38). Accuracy columns
// come from the scaled simulation; the shape to check is SkipTrain ≥
// D-PSGD on CIFAR with ~2x less energy, and parity on FEMNIST.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace skiptrain;
  util::ArgParser args("table3_summary", "Table 3: energy + accuracy summary");
  bench::add_common_flags(args);
  bench::add_sweep_flags(args);
  args.add_string("dataset", "both", "cifar | femnist | both");
  bench::parse_flags(args, argc, argv);

  struct PaperRow {
    double skip_energy[3];
    double dpsgd_energy;
    double skip_acc[3];
    double dpsgd_acc[3];
  };
  // Paper Table 3 values, indexed by degree {6, 8, 10}.
  const PaperRow paper_cifar{{755.02, 756.53, 1008.71},
                             1510.04,
                             {65.09, 65.93, 66.96},
                             {57.55, 60.08, 62.20}};
  const PaperRow paper_femnist{{7457.19, 7457.19, 9942.92},
                               14914.38,
                               {79.26, 79.32, 79.24},
                               {78.6, 78.69, 78.73}};

  sweep::PresetParams params = bench::preset_params_from_flags(args);
  params.dataset = args.get_string("dataset");
  const sweep::SweepGrid grid = bench::make_preset_checked("table3", params);
  const sweep::SweepOptions sweep_options =
      bench::sweep_options_from_flags(args, grid);

  bench::print_header("Table 3: training energy and average test accuracy",
                      "SkipTrain vs D-PSGD, 2 datasets x 3 topologies");

  const sweep::SweepReport report =
      bench::run_sweep(grid, sweep_options, args.get_string("trace-out"));

  util::TablePrinter table({"Algorithm", "Dataset", "Degree",
                            "Energy Wh (ours)", "Energy Wh (paper)",
                            "Acc% (ours)", "Acc% (paper)"});

  for (const std::string& dataset : grid.datasets) {
    const energy::Workload workload = sweep::workload_for(dataset);
    const PaperRow& paper =
        workload == energy::Workload::kCifar10 ? paper_cifar : paper_femnist;
    const std::size_t paper_total =
        energy::workload_spec(workload).total_rounds;

    // Paper reference columns exist for the published degrees only.
    const auto paper_index = [](std::size_t degree) {
      return degree == 6 ? 0 : degree == 8 ? 1 : degree == 10 ? 2 : -1;
    };
    for (const std::size_t degree : grid.degrees) {
      const int i = paper_index(degree);
      const auto [gamma_train, gamma_sync] = sweep::tuned_gammas(degree);
      const sweep::TrialResult* skip = bench::require_cell(
          report, dataset, degree, sim::Algorithm::kSkipTrain);
      const sweep::TrialResult* dpsgd = bench::require_cell(
          report, dataset, degree, sim::Algorithm::kDpsgd);
      if (skip == nullptr || dpsgd == nullptr) continue;
      // Closed-form paper-scale energy for this Γ configuration.
      const double skip_energy = bench::paper_scale_energy_wh(
          workload,
          core::count_training_rounds(gamma_train, gamma_sync, paper_total));
      const double dpsgd_energy =
          bench::paper_scale_energy_wh(workload, paper_total);

      table.add_row({"SkipTrain", skip->result.dataset,
                     std::to_string(degree), util::fixed(skip_energy, 2),
                     i >= 0 ? util::fixed(paper.skip_energy[i], 2) : "-",
                     util::fixed(100.0 * skip->result.final_mean_accuracy, 2),
                     i >= 0 ? util::fixed(paper.skip_acc[i], 2) : "-"});
      table.add_row({"D-PSGD", dpsgd->result.dataset, std::to_string(degree),
                     util::fixed(dpsgd_energy, 2),
                     util::fixed(paper.dpsgd_energy, 2),
                     util::fixed(100.0 * dpsgd->result.final_mean_accuracy, 2),
                     i >= 0 ? util::fixed(paper.dpsgd_acc[i], 2) : "-"});
    }
  }
  table.print();

  std::printf("\nnotes: energy columns are closed-form at 256-node paper "
              "scale (exact reproduction); accuracy columns come from the "
              "scaled simulation — check ordering and ratios, not absolute "
              "points.\n");
  return report.all_ok() ? 0 : 1;
}
