// Ablation: why does the optimal Γsync shrink with topology degree
// (Figure 3's trend)? Because denser graphs mix faster. This bench reports
// the spectral gap of the Metropolis-Hastings matrix per topology and the
// accuracy of SkipTrain with a fixed Γ budget, showing that extra sync
// rounds buy more on sparse graphs.
#include "common.hpp"

#include "graph/topology.hpp"

int main(int argc, char** argv) {
  using namespace skiptrain;
  util::ArgParser args("ablation_mixing",
                       "mixing speed (spectral gap) vs topology degree");
  bench::add_common_flags(args, /*default_nodes=*/32, /*default_rounds=*/120);
  bench::parse_flags(args, argc, argv);

  const bench::Workbench wb = bench::make_cifar_bench(args);
  sim::RunOptions base = bench::options_from_flags(args, wb);

  bench::print_header("Ablation: spectral gap and the value of sync rounds",
                      "denser graphs mix faster => fewer Γsync needed");
  base.algorithm = sim::Algorithm::kSkipTrain;
  base.eval_every = base.total_rounds;
  const std::size_t n = wb.data.num_nodes();

  util::TablePrinter gap_table(
      {"topology", "degree", "lambda2", "spectral gap", "diameter"});
  util::Rng rng(base.seed);
  const auto add_gap = [&](const std::string& name,
                           const graph::Topology& topo) {
    const auto mix = graph::MixingMatrix::metropolis_hastings(topo);
    gap_table.add_row({name, std::to_string(topo.degree(0)),
                       util::fixed(mix.second_eigenvalue(), 4),
                       util::fixed(mix.spectral_gap(), 4),
                       std::to_string(topo.diameter())});
  };
  add_gap("ring", graph::make_ring(n));
  for (const std::size_t degree : {4u, 6u, 8u, 10u}) {
    add_gap(std::to_string(degree) + "-regular",
            graph::make_random_regular(n, degree, rng));
  }
  add_gap("fully-connected", graph::make_fully_connected(n));
  gap_table.print();

  // Accuracy of SkipTrain under a heavy-sync vs light-sync split, on a
  // sparse and a dense topology. Expectation: heavy sync pays off on the
  // sparse graph, matters less on the dense one.
  std::printf("\nSkipTrain accuracy: heavy sync (Γ=2/6) vs light sync "
              "(Γ=6/2):\n");
  util::TablePrinter acc_table(
      {"degree", "heavy-sync acc%", "light-sync acc%", "delta"});
  for (const std::size_t degree : {4u, 10u}) {
    sim::RunOptions heavy = base;
    heavy.degree = degree;
    heavy.gamma_train = 2;
    heavy.gamma_sync = 6;
    const auto heavy_result = sim::run_experiment(wb.data, wb.model, heavy);

    sim::RunOptions light = base;
    light.degree = degree;
    light.gamma_train = 6;
    light.gamma_sync = 2;
    const auto light_result = sim::run_experiment(wb.data, wb.model, light);

    acc_table.add_row(
        {std::to_string(degree),
         util::fixed(100.0 * heavy_result.final_mean_accuracy, 2),
         util::fixed(100.0 * light_result.final_mean_accuracy, 2),
         util::fixed(100.0 * (heavy_result.final_mean_accuracy -
                              light_result.final_mean_accuracy),
                     2)});
  }
  acc_table.print();
  std::printf("\nexpected: spectral gap increases with degree; the "
              "heavy-vs-light sync delta shrinks (or flips) as the graph "
              "gets denser.\n");
  return 0;
}
