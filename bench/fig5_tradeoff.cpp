// Regenerates Figure 5 (and the accuracy trajectories behind Table 3):
// SkipTrain vs D-PSGD on both workloads across 6/8/10-regular topologies,
// reporting test accuracy vs rounds AND vs cumulative training energy.
//
// The 2x3x2 grid is declared once (sweep preset "fig5") and executed by
// the trial-parallel sweep runner; the D-PSGD/SkipTrain pair per cell is
// looked up from the report by spec.
//
// Expected shape: SkipTrain matches or beats D-PSGD at equal rounds while
// consuming ~half the training energy; per-energy, SkipTrain dominates.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace skiptrain;
  util::ArgParser args("fig5_tradeoff",
                       "Figure 5: SkipTrain vs D-PSGD trade-off");
  bench::add_common_flags(args);
  bench::add_sweep_flags(args);
  args.add_string("dataset", "both", "cifar | femnist | both");
  bench::parse_flags(args, argc, argv);

  sweep::PresetParams params = bench::preset_params_from_flags(args);
  params.dataset = args.get_string("dataset");
  const sweep::SweepGrid grid = bench::make_preset_checked("fig5", params);
  const sweep::SweepOptions sweep_options =
      bench::sweep_options_from_flags(args, grid);

  bench::print_header(
      "Figure 5: test accuracy vs rounds and vs training energy",
      "2 datasets x {6,8,10}-regular x {D-PSGD, SkipTrain}");

  const sweep::SweepReport report =
      bench::run_sweep(grid, sweep_options, args.get_string("trace-out"));

  util::CsvWriter csv("fig5_series.csv",
                      {"dataset", "degree", "algorithm", "round",
                       "mean_accuracy", "train_energy_wh"});

  for (const std::string& dataset : grid.datasets) {
    for (const std::size_t degree : grid.degrees) {
      const auto [gamma_train, gamma_sync] = sweep::tuned_gammas(degree);
      const sweep::TrialResult* dpsgd =
          bench::require_cell(report, dataset, degree, sim::Algorithm::kDpsgd);
      const sweep::TrialResult* skip = bench::require_cell(
          report, dataset, degree, sim::Algorithm::kSkipTrain);
      // A surviving trial's series is always written, even when its
      // partner failed and the comparison table below is impossible.
      const auto write_series = [&](const sweep::TrialResult* trial,
                                    const char* token) {
        if (trial == nullptr) return;
        for (const auto& record : trial->result.recorder.records()) {
          csv.write_row(std::vector<std::string>{
              trial->result.dataset, std::to_string(degree), token,
              std::to_string(record.round),
              util::fixed(100.0 * record.mean_accuracy, 4),
              util::fixed(record.train_energy_wh, 4)});
        }
      };
      write_series(dpsgd, "dpsgd");
      write_series(skip, "skiptrain");
      if (dpsgd == nullptr || skip == nullptr) continue;
      const std::string& name = dpsgd->result.dataset;

      std::printf("\n--- %s, %zu-regular (Γtrain=%zu, Γsync=%zu) ---\n",
                  name.c_str(), degree, gamma_train, gamma_sync);
      util::TablePrinter table({"round", "D-PSGD acc%", "D-PSGD Wh",
                                "SkipTrain acc%", "SkipTrain Wh"});
      const auto& d_rec = dpsgd->result.recorder.records();
      const auto& s_rec = skip->result.recorder.records();
      for (std::size_t i = 0; i < std::min(d_rec.size(), s_rec.size()); ++i) {
        table.add_row({std::to_string(d_rec[i].round),
                       util::fixed(100.0 * d_rec[i].mean_accuracy, 2),
                       util::fixed(d_rec[i].train_energy_wh, 1),
                       util::fixed(100.0 * s_rec[i].mean_accuracy, 2),
                       util::fixed(s_rec[i].train_energy_wh, 1)});
      }
      table.print();
      std::printf("final: D-PSGD %.2f%% @ %.1f Wh | SkipTrain %.2f%% @ %.1f "
                  "Wh (energy ratio %.2fx)\n",
                  100.0 * dpsgd->result.final_mean_accuracy,
                  dpsgd->result.total_training_wh,
                  100.0 * skip->result.final_mean_accuracy,
                  skip->result.total_training_wh,
                  dpsgd->result.total_training_wh /
                      std::max(skip->result.total_training_wh, 1e-9));
    }
  }

  std::printf("\nseries written to fig5_series.csv\n");
  std::printf("paper shape: SkipTrain ≥ D-PSGD accuracy at equal rounds with "
              "~2x less training energy; CIFAR gap >> FEMNIST gap.\n");
  return report.all_ok() ? 0 : 1;
}
