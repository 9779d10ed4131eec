// Generic sweep driver: runs any declarative parameter grid — a named
// paper preset or a key=value config file — without writing a new binary.
//
//   sweep_main --preset fig3 --threads 4
//   sweep_main --config grids/gamma8.conf --csv out.csv
//   sweep_main --preset table3 --list        # show trials, don't run
//
// Exits non-zero when any trial failed; failures are printed per trial,
// never swallowed.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace skiptrain;
  util::ArgParser args("sweep_main",
                       "run a declarative parameter sweep (preset or config "
                       "file) on the trial-parallel sweep runner");
  std::string presets;
  for (const std::string& name : sweep::preset_names()) {
    presets += (presets.empty() ? "" : " | ") + name;
  }
  args.add_string("preset", "", "paper preset: " + presets);
  args.add_string("config", "", "key=value grid config file");
  args.add_string("csv", "", "summary CSV path (default <name>_sweep.csv)");
  args.add_flag("list", "print the expanded trial list and exit");
  args.add_flag("verbose", "per-trial progress on stderr");
  // Preset knobs (ignored with --config); the shared flag set keeps the
  // defaults identical to the figure/table benches, and 0 nodes/rounds
  // means "the preset's default".
  bench::add_common_flags(args, /*default_nodes=*/0, /*default_rounds=*/0);
  bench::add_sweep_flags(args);
  args.add_string("dataset", "", "cifar | femnist | both (preset default)");
  args.add_int("gamma-max", 4, "presets that sweep Γ: Γ in 1..gamma-max");
  args.add_string("faults", "",
                  "override the grid's fault-plan axis: ';'-separated "
                  "fault::make_plan specs, e.g. 'none;drop:0.05,crash:0.01'");
  bench::parse_flags(args, argc, argv);

  if (args.get_int("gamma-max") < 1) {
    std::fprintf(stderr, "sweep_main: --gamma-max must be >= 1\n");
    return 2;
  }
  const std::string& preset = args.get_string("preset");
  const std::string& config = args.get_string("config");
  if ((preset.empty()) == (config.empty())) {
    std::fprintf(stderr, "sweep_main: pass exactly one of --preset/--config\n\n%s",
                 args.usage().c_str());
    return 2;
  }

  sweep::SweepGrid grid;
  std::vector<sweep::TrialSpec> trials;
  try {
    if (!config.empty()) {
      grid = sweep::load_grid_file(config);
    } else {
      sweep::PresetParams params = bench::preset_params_from_flags(args);
      params.dataset = args.get_string("dataset");
      params.gamma_max = static_cast<std::size_t>(args.get_int("gamma-max"));
      grid = sweep::make_preset(preset, params);
    }
    if (!args.get_string("faults").empty()) {
      grid = sweep::grid_from_kv({{"faults", args.get_string("faults")}},
                                 std::move(grid));
    }
    trials = grid.expand();  // config-file grids validate axes here
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_main: %s\n", e.what());
    return 2;
  }

  const sweep::SweepOptions sweep_options =
      bench::sweep_options_from_flags(args, grid, args.get_flag("verbose"));

  std::printf("sweep '%s': %zu trials\n", grid.name.c_str(), trials.size());
  if (args.get_flag("list")) {
    util::TablePrinter table(
        {"trial", "dataset", "nodes", "algorithm", "deg", "Γt", "Γs", "seed",
         "rounds"});
    for (const auto& spec : trials) {
      table.add_row({std::to_string(spec.index), spec.data.dataset,
                     std::to_string(spec.data.nodes),
                     sweep::algorithm_token(spec.options.algorithm),
                     std::to_string(spec.options.degree),
                     std::to_string(spec.options.gamma_train),
                     std::to_string(spec.options.gamma_sync),
                     std::to_string(spec.options.seed),
                     std::to_string(spec.options.total_rounds)});
    }
    table.print();
    return 0;
  }

  const sweep::SweepReport report =
      bench::run_sweep(grid, sweep_options, args.get_string("trace-out"));

  std::printf("%s", report.render_table().c_str());
  const std::string csv_path = args.get_string("csv").empty()
                                   ? grid.name + "_sweep.csv"
                                   : args.get_string("csv");
  report.write_csv(csv_path);
  bench::export_telemetry(report, args, csv_path);
  if (report.resumed_trials != 0) {
    std::printf("%zu completed trials loaded from checkpoint (not re-run)\n",
                report.resumed_trials);
  }
  std::printf("%zu trials in %.1fs (%zu failed), summary written to %s\n",
              report.trials.size(), report.wall_seconds, report.failures,
              csv_path.c_str());
  return report.all_ok() ? 0 : 1;
}
