// Scenario-engine ablation: the fairness / accuracy / joules frontier
// under intermittent power. Runs a schedule-policy grid under the paper's
// always-powered setting and under the solar and churn scenarios, and
// reports for each run the final accuracy, the fairness gap (max - min
// per-node accuracy — weak-panel nodes brown out more and can fall
// behind), the realized fleet availability, and the energy actually
// spent. The frontier question: which policy buys the most accuracy per
// joule once nodes churn, and at what fairness cost?
#include <algorithm>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace skiptrain;
  util::ArgParser args("ablation_scenario",
                       "fairness/accuracy/joules frontier under "
                       "energy-harvesting scenarios");
  bench::add_common_flags(args, /*default_nodes=*/32, /*default_rounds=*/96);
  args.add_int("degree", 6, "topology degree");
  args.add_string("scenarios", "none,solar,churn",
                  "comma-separated scenario tokens (none|solar|churn|"
                  "trace:<path>)");
  bench::parse_flags(args, argc, argv);

  const bench::Workbench wb = bench::make_cifar_bench(args);
  const sim::RunOptions base = bench::options_from_flags(args, wb);
  const std::size_t degree = bench::flag_size(args, "degree");
  const std::vector<std::string> scenarios =
      sweep::split_list(args.get_string("scenarios"));

  bench::print_header(
      "Ablation: scenario frontier (fairness / accuracy / joules)",
      "what does intermittent power cost, and which schedule spends "
      "harvested energy best?");

  const sim::Algorithm algorithms[] = {
      sim::Algorithm::kDpsgd,
      sim::Algorithm::kSkipTrain,
      sim::Algorithm::kSkipTrainHarvest,
      sim::Algorithm::kDealDecremental,
  };

  util::TablePrinter table({"scenario", "algorithm", "acc%", "fair gap%",
                            "avail%", "spent Wh", "harvest Wh",
                            "acc%/Wh"});
  bool all_ok = true;
  for (const std::string& scenario_name : scenarios) {
    for (const sim::Algorithm algorithm : algorithms) {
      sim::RunOptions options = base;
      options.algorithm = algorithm;
      options.degree = degree;
      options.gamma_train = 4;
      options.gamma_sync = 4;
      options.scenario = scenario_name;
      options.eval_every = options.total_rounds;
      try {
        const auto result = sim::run_experiment(wb.data, wb.model, options);
        const auto [min_it, max_it] =
            std::minmax_element(result.final_per_node_accuracy.begin(),
                                result.final_per_node_accuracy.end());
        const double gap = result.final_per_node_accuracy.empty()
                               ? 0.0
                               : *max_it - *min_it;
        const double spent_wh =
            result.total_training_wh + result.total_comm_wh;
        table.add_row(
            {scenario::scenario_token(scenario_name), result.algorithm,
             util::fixed(100.0 * result.final_mean_accuracy, 2),
             util::fixed(100.0 * gap, 2),
             util::fixed(100.0 * result.mean_availability, 1),
             util::fixed(spent_wh, 3), util::fixed(result.harvested_wh, 3),
             spent_wh > 0.0
                 ? util::fixed(100.0 * result.final_mean_accuracy / spent_wh,
                               2)
                 : "-"});
      } catch (const std::exception& e) {
        all_ok = false;
        table.add_row({scenario::scenario_token(scenario_name),
                       sim::algorithm_name(algorithm), e.what(), "-", "-",
                       "-", "-", "-"});
      }
    }
  }
  table.print();

  std::printf(
      "\nreading the frontier: scenario=none is the paper's setting "
      "(availability 100%%). Under solar/churn, the harvest-aware and "
      "decremental policies should dominate the fixed schedules on "
      "acc%%/Wh, at a modest fairness-gap increase from weak-panel nodes "
      "browning out more often.\n");
  return all_ok ? 0 : 1;
}
