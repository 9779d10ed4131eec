// Energy-trace parity tests: the canonical traces must reproduce Table 2
// and the closed-form energy columns of Table 3 / Figure 3, and the
// Burnout/AI-Benchmark/FedScale derivation pipeline must agree with the
// canonical values within a few percent.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "core/equations.hpp"
#include "energy/accountant.hpp"
#include "energy/device.hpp"
#include "energy/fleet.hpp"
#include "quant/codec.hpp"
#include "sweep/grid.hpp"

namespace skiptrain::energy {
namespace {

TEST(WorkloadSpec, Table1Constants) {
  const WorkloadSpec& cifar = workload_spec(Workload::kCifar10);
  EXPECT_EQ(cifar.model_params, 89834u);
  EXPECT_EQ(cifar.batch_size, 32u);
  EXPECT_EQ(cifar.local_steps, 20u);
  EXPECT_EQ(cifar.total_rounds, 1000u);
  EXPECT_DOUBLE_EQ(cifar.battery_drain_fraction, 0.10);

  const WorkloadSpec& femnist = workload_spec(Workload::kFemnist);
  EXPECT_EQ(femnist.model_params, 1690046u);
  EXPECT_EQ(femnist.batch_size, 16u);
  EXPECT_EQ(femnist.local_steps, 7u);
  EXPECT_EQ(femnist.total_rounds, 3000u);
  EXPECT_DOUBLE_EQ(femnist.battery_drain_fraction, 0.50);
}

/// `value` as a table prints it: `decimals` digits after the point.
std::string printed(double value, int decimals) {
  char text[32];
  std::snprintf(text, sizeof(text), "%.*f", decimals, value);
  return text;
}

TEST(Traces, Table2CanonicalValues) {
  const auto& traces = smartphone_traces();
  ASSERT_EQ(traces.size(), 4u);

  // Every Table 2 energy (mWh) at the paper's printed precision: one
  // decimal for CIFAR-10, whole mWh for FEMNIST except the OnePlus 8.4.
  EXPECT_EQ(traces[0].profile.name, "Xiaomi 12 Pro");
  EXPECT_EQ(printed(traces[0].cifar_mwh, 1), "6.5");
  EXPECT_EQ(printed(traces[0].femnist_mwh, 0), "22");
  EXPECT_EQ(traces[0].cifar_rounds, 272u);
  EXPECT_EQ(traces[0].femnist_rounds, 413u);

  EXPECT_EQ(traces[1].profile.name, "Samsung Galaxy S22 Ultra");
  EXPECT_EQ(printed(traces[1].cifar_mwh, 1), "6.0");
  EXPECT_EQ(printed(traces[1].femnist_mwh, 0), "20");
  EXPECT_EQ(traces[1].cifar_rounds, 324u);
  EXPECT_EQ(traces[1].femnist_rounds, 492u);

  EXPECT_EQ(traces[2].profile.name, "OnePlus Nord 2 5G");
  EXPECT_EQ(printed(traces[2].cifar_mwh, 1), "2.6");
  EXPECT_EQ(printed(traces[2].femnist_mwh, 1), "8.4");
  EXPECT_EQ(traces[2].cifar_rounds, 681u);
  EXPECT_EQ(traces[2].femnist_rounds, 1034u);

  EXPECT_EQ(traces[3].profile.name, "Xiaomi Poco X3");
  EXPECT_EQ(printed(traces[3].cifar_mwh, 1), "8.5");
  EXPECT_EQ(printed(traces[3].femnist_mwh, 0), "28");
  EXPECT_EQ(traces[3].cifar_rounds, 272u);
  EXPECT_EQ(traces[3].femnist_rounds, 413u);
}

TEST(Traces, Table3DpsgdEnergyReproduces) {
  // D-PSGD trains every node every round, at Table 3's printed precision:
  //   CIFAR-10: 256 x 1000 x mean = 1510.04 Wh,
  //   FEMNIST:  256 x 3000 x mean = 14914.3872 Wh, printed 14914.39. The
  //   paper prints 14914.38: the one Table 2/3 energy cell the canonical
  //   traces miss, by one rounding step.
  const double cifar_total =
      mean_energy_per_round_mwh(Workload::kCifar10) * 256.0 * 1000.0 / 1000.0;
  EXPECT_EQ(printed(cifar_total, 2), "1510.04");

  const double femnist_total =
      mean_energy_per_round_mwh(Workload::kFemnist) * 256.0 * 3000.0 / 1000.0;
  EXPECT_EQ(printed(femnist_total, 2), "14914.39");
}

TEST(Traces, Table3SkipTrainEnergyReproduces) {
  // SkipTrain executes T_train coordinated training rounds (Eq. 4) at the
  // Γ pair table3_summary tunes per degree: 6 -> (4, 4), 8 -> (3, 3),
  // 10 -> (4, 2). Every cell at Table 3's printed precision.
  struct Cell {
    Workload workload;
    std::size_t degree;
    const char* wh;
  };
  const Cell cells[] = {
      {Workload::kCifar10, 6, "755.02"},
      {Workload::kCifar10, 8, "756.53"},
      {Workload::kCifar10, 10, "1008.71"},
      {Workload::kFemnist, 6, "7457.19"},
      {Workload::kFemnist, 8, "7457.19"},
      {Workload::kFemnist, 10, "9942.92"},
  };
  for (const Cell& cell : cells) {
    const auto [gamma_train, gamma_sync] = sweep::tuned_gammas(cell.degree);
    const std::size_t rounds = core::count_training_rounds(
        gamma_train, gamma_sync, workload_spec(cell.workload).total_rounds);
    const Fleet fleet = Fleet::even(256, cell.workload);
    EXPECT_EQ(printed(fleet.total_training_energy_wh(rounds), 2), cell.wh)
        << "degree " << cell.degree;
  }
}

TEST(Traces, Figure3EnergyHeatmapReproduces) {
  // Figure 3 right: energy as a function of (Γtrain, Γsync) over 1000
  // rounds at 256 nodes. Selected cells from the paper.
  const Fleet fleet = Fleet::even(256, Workload::kCifar10);
  const auto energy_at = [&](std::size_t gt, std::size_t gs) {
    return fleet.total_training_energy_wh(
        core::count_training_rounds(gt, gs, 1000));
  };
  EXPECT_NEAR(energy_at(1, 1), 755.0, 4.0);
  EXPECT_NEAR(energy_at(1, 4), 302.0, 3.0);
  EXPECT_NEAR(energy_at(4, 1), 1208.0, 7.0);
  EXPECT_NEAR(energy_at(2, 3), 604.0, 4.0);
  EXPECT_NEAR(energy_at(3, 2), 906.0, 6.0);
}

TEST(DerivationPipeline, AgreesWithCanonicalTrace) {
  // The Burnout + AI-Benchmark + FedScale formula must land within ~3% of
  // the canonical Table 2 energies on BOTH workloads.
  for (const TraceEntry& entry : smartphone_traces()) {
    const double derived_cifar = entry.profile.derived_energy_per_round_mwh(
        workload_spec(Workload::kCifar10));
    EXPECT_NEAR(derived_cifar, entry.cifar_mwh, entry.cifar_mwh * 0.03)
        << entry.profile.name;
    const double derived_femnist = entry.profile.derived_energy_per_round_mwh(
        workload_spec(Workload::kFemnist));
    EXPECT_NEAR(derived_femnist, entry.femnist_mwh, entry.femnist_mwh * 0.03)
        << entry.profile.name;
  }
}

TEST(DerivationPipeline, BudgetRoundsMatchTable2) {
  // τ derived from battery capacity and the canonical per-round energy:
  // exact on CIFAR (battery was calibrated from that column), within 5% on
  // FEMNIST (the paper's own rounding slack; see README.md, "Energy traces
  // and budgets").
  for (const TraceEntry& entry : smartphone_traces()) {
    const std::size_t derived_cifar = entry.profile.budget_rounds(
        workload_spec(Workload::kCifar10), entry.cifar_mwh);
    EXPECT_EQ(derived_cifar, entry.cifar_rounds) << entry.profile.name;

    const std::size_t derived_femnist = entry.profile.budget_rounds(
        workload_spec(Workload::kFemnist), entry.femnist_mwh);
    const double rel =
        std::abs(static_cast<double>(derived_femnist) -
                 static_cast<double>(entry.femnist_rounds)) /
        static_cast<double>(entry.femnist_rounds);
    EXPECT_LT(rel, 0.05) << entry.profile.name << " derived="
                         << derived_femnist;
  }
}

TEST(DerivationPipeline, FemnistCostsMoreThanCifar) {
  // Larger model (|x| 1.69M vs 90k) though smaller batch/steps: the paper's
  // Table 2 shows ~3.3x higher per-round energy for FEMNIST.
  for (const TraceEntry& entry : smartphone_traces()) {
    const double ratio = entry.femnist_mwh / entry.cifar_mwh;
    EXPECT_GT(ratio, 3.0) << entry.profile.name;
    EXPECT_LT(ratio, 3.7) << entry.profile.name;
  }
}

TEST(CommModel, IntroTwoHundredXClaim) {
  // §1: on CIFAR-10 with 256 nodes / 1000 rounds, training = 1.51 kWh and
  // sharing+aggregation ≈ 7 Wh, i.e. >200x cheaper.
  const CommModel comm;
  const WorkloadSpec& spec = workload_spec(Workload::kCifar10);
  const double per_exchange = comm.exchange_energy_mwh(spec.model_params, 6);
  const double total_comm_wh = per_exchange * 256.0 * 1000.0 / 1000.0;
  EXPECT_NEAR(total_comm_wh, 7.0, 0.5);

  const double total_train_wh = 1510.04;
  EXPECT_GT(total_train_wh / total_comm_wh, 200.0);
}

TEST(Fleet, EvenAssignmentCounts) {
  const Fleet fleet = Fleet::even(256, Workload::kCifar10);
  std::vector<std::size_t> counts(4, 0);
  for (std::size_t node = 0; node < 256; ++node) {
    ++counts[fleet.device_index(node)];
  }
  for (const std::size_t c : counts) EXPECT_EQ(c, 64u);
  EXPECT_NEAR(fleet.mean_training_energy_mwh(),
              mean_energy_per_round_mwh(Workload::kCifar10), 1e-9);
}

TEST(Fleet, BudgetTotalsMatchClosedForm) {
  const Fleet fleet = Fleet::even(4, Workload::kCifar10);
  double expected_mwh = 0.0;
  for (const TraceEntry& entry : smartphone_traces()) {
    expected_mwh +=
        entry.cifar_mwh * static_cast<double>(entry.cifar_rounds);
  }
  EXPECT_NEAR(fleet.total_budget_wh(), expected_mwh / 1000.0, 1e-9);
}

TEST(Fleet, UniformFleetUsesOneDevice) {
  const Fleet fleet = Fleet::uniform(10, 2, Workload::kFemnist);
  for (std::size_t node = 0; node < 10; ++node) {
    EXPECT_EQ(fleet.device(node).profile.name, "OnePlus Nord 2 5G");
  }
}

TEST(Accountant, TracksTrainingAndBudget) {
  const Fleet fleet = Fleet::even(4, Workload::kCifar10);
  EnergyAccountant accountant(fleet, CommModel{}, 89834,
                              std::vector<std::size_t>{6, 6, 6, 6});
  const std::size_t tau0 = fleet.budget_rounds(0);
  EXPECT_EQ(accountant.remaining_budget(0), tau0);

  accountant.record_training(0);
  accountant.record_training(0);
  EXPECT_EQ(accountant.training_rounds_executed(0), 2u);
  EXPECT_EQ(accountant.remaining_budget(0), tau0 - 2);
  EXPECT_NEAR(accountant.node_training_mwh(0),
              2.0 * fleet.training_energy_mwh(0), 1e-12);
  EXPECT_EQ(accountant.training_rounds_executed(1), 0u);
}

TEST(Accountant, BudgetNeverGoesNegative) {
  const Fleet fleet = Fleet::uniform(1, 0, Workload::kCifar10);
  EnergyAccountant accountant(fleet, CommModel{}, 1000,
                              std::vector<std::size_t>{2});
  const std::size_t tau = fleet.budget_rounds(0);
  for (std::size_t i = 0; i < tau + 50; ++i) accountant.record_training(0);
  EXPECT_EQ(accountant.remaining_budget(0), 0u);
  EXPECT_FALSE(accountant.has_budget(0));
}

TEST(Accountant, CommEnergyScalesWithDegree) {
  const Fleet fleet = Fleet::even(2, Workload::kCifar10);
  EnergyAccountant accountant(fleet, CommModel{}, 89834,
                              std::vector<std::size_t>{3, 6});
  accountant.record_exchange(0);
  accountant.record_exchange(1);
  EXPECT_NEAR(accountant.node_comm_mwh(1), 2.0 * accountant.node_comm_mwh(0),
              1e-12);
}

TEST(Accountant, TotalsAggregateAcrossNodes) {
  const Fleet fleet = Fleet::even(4, Workload::kCifar10);
  EnergyAccountant accountant(fleet, CommModel{}, 89834,
                              std::vector<std::size_t>(4, 6));
  for (std::size_t node = 0; node < 4; ++node) {
    accountant.record_training(node);
    accountant.record_exchange(node);
  }
  double expected_train_mwh = 0.0;
  for (std::size_t node = 0; node < 4; ++node) {
    expected_train_mwh += fleet.training_energy_mwh(node);
  }
  EXPECT_NEAR(accountant.total_training_wh(), expected_train_mwh / 1000.0,
              1e-12);
  EXPECT_GT(accountant.total_comm_wh(), 0.0);
  EXPECT_NEAR(accountant.total_wh(),
              accountant.total_training_wh() + accountant.total_comm_wh(),
              1e-12);
}

TEST(Accountant, BillsCodecWireBytesPerParam) {
  // Regression for the once-hardcoded 4 bytes/param: a dense fp32, fp16
  // and int8 exchange of the same model must bill 4 / 2 / 1.125 bytes per
  // parameter respectively (int8 = 1 code byte + the amortized per-block
  // scale/offset header).
  const Fleet fleet = Fleet::even(1, Workload::kCifar10);
  const auto comm_wh_for = [&](quant::Codec codec) {
    EnergyAccountant accountant(fleet, quant::comm_model_for(codec), 89834,
                                std::vector<std::size_t>{6});
    accountant.record_exchange(0);
    return accountant.node_comm_mwh(0);
  };
  const double fp32 = comm_wh_for(quant::Codec::kIdentity);
  const double fp16 = comm_wh_for(quant::Codec::kFp16);
  const double int8 = comm_wh_for(quant::Codec::kInt8);
  EXPECT_GT(fp32, 0.0);
  EXPECT_NEAR(fp16 / fp32, 2.0 / 4.0, 1e-12);
  EXPECT_NEAR(int8 / fp32, 1.125 / 4.0, 1e-12);
  // And fp32 still matches the default (paper) comm model bit-for-bit.
  EnergyAccountant baseline(fleet, CommModel{}, 89834,
                            std::vector<std::size_t>{6});
  baseline.record_exchange(0);
  EXPECT_DOUBLE_EQ(fp32, baseline.node_comm_mwh(0));
}

TEST(Accountant, SizeMismatchThrows) {
  const Fleet fleet = Fleet::even(4, Workload::kCifar10);
  EXPECT_THROW(EnergyAccountant(fleet, CommModel{}, 100,
                                std::vector<std::size_t>{6, 6}),
               std::invalid_argument);
}

TEST(Batteries, RealisticPackSizes) {
  // Sanity: capacities between 15 and 25 Wh (3900-6500 mAh at ~3.85 V).
  for (const TraceEntry& entry : smartphone_traces()) {
    EXPECT_GT(entry.profile.battery_wh, 15.0) << entry.profile.name;
    EXPECT_LT(entry.profile.battery_wh, 25.0) << entry.profile.name;
  }
}

}  // namespace
}  // namespace skiptrain::energy
