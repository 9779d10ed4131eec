// Regenerates Table 2: per-device per-round training energy and the
// battery-drain round budgets τ, for both workloads. Also prints the
// derivation-pipeline values (Burnout power x FedScale-scaled duration)
// next to the canonical trace so the methodology is auditable.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace skiptrain;
  util::ArgParser args("table2_energy_traces",
                       "Table 2: smartphone energy traces");
  bench::parse_flags(args, argc, argv);

  bench::print_header(
      "Table 2: Energy traces for CIFAR-10 and FEMNIST",
      "per-round mWh and training-round budgets for 4 smartphones");

  util::TablePrinter table({"Device", "CIFAR mWh", "FEMNIST mWh",
                            "CIFAR rounds", "FEMNIST rounds", "derived CIFAR",
                            "derived FEMNIST", "battery Wh"});
  const auto& cifar_spec = energy::workload_spec(energy::Workload::kCifar10);
  const auto& femnist_spec = energy::workload_spec(energy::Workload::kFemnist);
  for (const auto& entry : energy::smartphone_traces()) {
    table.add_row({entry.profile.name, util::fixed(entry.cifar_mwh, 1),
                   util::fixed(entry.femnist_mwh, 1),
                   std::to_string(entry.cifar_rounds),
                   std::to_string(entry.femnist_rounds),
                   util::fixed(entry.profile.derived_energy_per_round_mwh(
                                   cifar_spec),
                               2),
                   util::fixed(entry.profile.derived_energy_per_round_mwh(
                                   femnist_spec),
                               2),
                   util::fixed(entry.profile.battery_wh, 2)});
  }
  table.print();

  std::printf("\npaper Table 2 (displayed values):\n");
  std::printf("  Xiaomi 12 Pro            6.5 / 22   | 272 / 413\n");
  std::printf("  Samsung Galaxy S22 Ultra 6.0 / 20   | 324 / 492\n");
  std::printf("  OnePlus Nord 2 5G        2.6 / 8.4  | 681 / 1034\n");
  std::printf("  Xiaomi Poco X3           8.5 / 28   | 272 / 413\n");

  std::printf(
      "\nmean per-round energy: CIFAR-10 %.4f mWh, FEMNIST %.4f mWh\n",
      energy::mean_energy_per_round_mwh(energy::Workload::kCifar10),
      energy::mean_energy_per_round_mwh(energy::Workload::kFemnist));
  std::printf(
      "implied D-PSGD totals (256 nodes): CIFAR-10 %.2f Wh (paper 1510.04), "
      "FEMNIST %.2f Wh (paper 14914.38)\n",
      bench::paper_scale_energy_wh(energy::Workload::kCifar10, 1000),
      bench::paper_scale_energy_wh(energy::Workload::kFemnist, 3000));
  return 0;
}
