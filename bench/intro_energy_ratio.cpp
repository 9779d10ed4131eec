// Regenerates the §1 motivating measurement: on CIFAR-10 with 256 nodes
// and 1000 rounds of D-PSGD, training consumes 1.51 kWh while sharing and
// aggregating consumes ~7 Wh — training is >200x costlier. This quantity
// is closed-form under the trace + communication models.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace skiptrain;
  util::ArgParser args("intro_energy_ratio",
                       "§1: training vs communication energy (200x claim)");
  args.add_int("degree", 6, "topology degree");
  bench::parse_flags(args, argc, argv);

  const std::size_t degree = bench::flag_size(args, "degree");

  bench::print_header("Intro claim: training is >200x costlier than sharing",
                      "256 nodes, 1000 rounds, CIFAR-10 model (89834 params)");

  const auto& spec = energy::workload_spec(energy::Workload::kCifar10);
  const energy::CommModel comm;

  const double train_wh =
      bench::paper_scale_energy_wh(energy::Workload::kCifar10, 1000);
  const double comm_wh =
      comm.exchange_energy_mwh(spec.model_params, degree) * 256.0 * 1000.0 /
      1000.0;

  util::TablePrinter table({"quantity", "ours", "paper"});
  table.add_row({"training energy", util::fixed(train_wh / 1000.0, 3) + " kWh",
                 "1.51 kWh"});
  table.add_row({"sharing+aggregation energy", util::fixed(comm_wh, 2) + " Wh",
                 "7 Wh"});
  table.add_row({"ratio", util::fixed(train_wh / comm_wh, 0) + "x", ">200x"});
  table.print();

  std::printf("\nper node-round: training %.3f mWh vs one exchange %.5f mWh "
              "(model %.2f MB to %zu neighbors)\n",
              energy::mean_energy_per_round_mwh(energy::Workload::kCifar10),
              comm.exchange_energy_mwh(spec.model_params, degree),
              static_cast<double>(spec.model_params) * 4.0 / 1e6, degree);
  std::printf("\nThis asymmetry is SkipTrain's enabling observation: "
              "synchronization rounds are energetically almost free.\n");
  return 0;
}
