// Fault-plan ablation: the accuracy-vs-loss-rate frontier. Runs the
// schedule policies under a ladder of fault plans — from the paper's
// lossless wire to heavy drop/corrupt/dup/crash chaos — and reports the
// realized delivery rate, the fault telemetry, and what the chaos cost
// in accuracy. The frontier question: how much wire loss can the gossip
// averaging absorb before accuracy falls off, and does the SkipTrain
// schedule (fewer, larger sync phases) degrade differently from D-PSGD
// (every round on the wire)?
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace skiptrain;
  util::ArgParser args("ablation_faults",
                       "accuracy-vs-loss-rate frontier under deterministic "
                       "fault injection");
  bench::add_common_flags(args, /*default_nodes=*/32, /*default_rounds=*/96);
  args.add_int("degree", 6, "topology degree");
  args.add_string("faults",
                  "none;drop:0.05;drop:0.15;drop:0.3;"
                  "drop:0.05,corrupt:0.02,dup:0.05;"
                  "drop:0.1,corrupt:0.05,dup:0.05,crash:0.01",
                  "';'-separated fault::make_plan specs forming the loss "
                  "ladder (specs themselves contain commas)");
  bench::parse_flags(args, argc, argv);

  const bench::Workbench wb = bench::make_cifar_bench(args);
  const sim::RunOptions base = bench::options_from_flags(args, wb);
  const std::size_t degree = bench::flag_size(args, "degree");
  const std::vector<std::string> ladder =
      sweep::split_semicolon_list(args.get_string("faults"));

  bench::print_header(
      "Ablation: fault frontier (accuracy vs loss rate)",
      "how much lossy-wire chaos does gossip averaging absorb, and at "
      "what accuracy cost?");

  const sim::Algorithm algorithms[] = {
      sim::Algorithm::kDpsgd,
      sim::Algorithm::kSkipTrain,
  };

  util::TablePrinter table({"faults", "algorithm", "acc%", "delivery%",
                            "dropped", "corrupt", "dup", "down rounds",
                            "comm Wh"});
  bool all_ok = true;
  for (const std::string& spec : ladder) {
    for (const sim::Algorithm algorithm : algorithms) {
      sim::RunOptions options = base;
      options.algorithm = algorithm;
      options.degree = degree;
      options.gamma_train = 4;
      options.gamma_sync = 4;
      options.faults = spec;
      options.eval_every = options.total_rounds;
      try {
        const auto result = sim::run_experiment(wb.data, wb.model, options);
        table.add_row({fault::fault_token(spec), result.algorithm,
                       util::fixed(100.0 * result.final_mean_accuracy, 2),
                       util::fixed(100.0 * result.delivery_rate, 1),
                       std::to_string(result.dropped_messages),
                       std::to_string(result.corrupt_messages),
                       std::to_string(result.duplicated_messages),
                       std::to_string(result.crash_down_rounds),
                       util::fixed(result.total_comm_wh, 4)});
      } catch (const std::exception& e) {
        all_ok = false;
        table.add_row({fault::fault_token(spec),
                       sim::algorithm_name(algorithm), e.what(), "-", "-",
                       "-", "-", "-", "-"});
      }
    }
  }
  table.print();

  std::printf(
      "\nreading the frontier: lost and corrupt neighbor mass reverts to "
      "self through the masked-aggregation difference form, so moderate "
      "loss mostly slows consensus rather than sinking accuracy. The "
      "CRC-framed wire turns every corruption into a counted drop — "
      "delivery%% is the single knob that predicts the accuracy hit.\n");
  return all_ok ? 0 : 1;
}
