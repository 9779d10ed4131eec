// Ablation (related work, §6): top-k sparsified model exchange. Sweeps the
// wire fraction and reports final accuracy vs communication energy —
// quantifying how much of the (already tiny) sharing cost sparsification
// can recover and what it costs in accuracy.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace skiptrain;
  util::ArgParser args("ablation_compression",
                       "masked sparse exchange: accuracy vs wire volume");
  bench::add_common_flags(args, /*default_nodes=*/32, /*default_rounds=*/160);
  args.add_int("degree", 6, "topology degree");
  bench::parse_flags(args, argc, argv);

  const bench::Workbench wb = bench::make_cifar_bench(args);
  sim::RunOptions options = bench::options_from_flags(args, wb);
  options.degree = bench::flag_size(args, "degree");

  bench::print_header(
      "Ablation: masked sparse exchanges (Sparse-Push axis)",
      "round-shared random coordinate mask; dense = the paper's setting");
  std::tie(options.gamma_train, options.gamma_sync) =
      sweep::tuned_gammas(options.degree);
  options.eval_every = options.total_rounds;  // score the final round only
  const std::size_t dim = wb.model.num_parameters();

  util::TablePrinter table({"exchange", "wire fraction", "final acc%",
                            "comm energy Wh", "train energy Wh"});

  const std::size_t dense_marker = 0;
  const std::size_t ks[] = {dense_marker, dim / 2, dim / 4, dim / 10,
                            dim / 50};
  for (const std::size_t k : ks) {
    options.sparse_exchange_k = k;
    const sim::ExperimentResult result =
        sim::run_experiment(wb.data, wb.model, options);
    const double fraction =
        k == 0 ? 1.0
               : static_cast<double>(std::min(k, dim)) /
                     static_cast<double>(dim);
    table.add_row({k == 0 ? "dense" : "mask-" + std::to_string(k),
                   util::fixed(fraction, 2),
                   util::fixed(100.0 * result.final_mean_accuracy, 2),
                   util::fixed(result.total_comm_wh, 4),
                   util::fixed(result.total_training_wh, 2)});
  }
  table.print();

  std::printf("\nreading: masked sharing trims the (already ~200x smaller) "
              "communication energy; because the mask rotates every round, "
              "all coordinates keep mixing and accuracy degrades "
              "gracefully. (Magnitude top-k on raw parameters instead "
              "starves the unsent coordinates and collapses — see "
              "core/compression.hpp.)\n");
  return 0;
}
