// Regenerates Table 1: the simulation hyperparameters, both the paper's
// values (encoded in energy::workload_spec and the model zoo) and the
// scaled defaults this repository's benches use.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace skiptrain;
  util::ArgParser args("table1_hyperparams",
                       "Table 1: simulation hyperparameters");
  bench::add_common_flags(args);
  bench::parse_flags(args, argc, argv);
  const std::size_t nodes = bench::flag_size(args, "nodes");
  const std::size_t rounds = bench::flag_size(args, "rounds");
  const std::size_t local_steps = bench::flag_size(args, "local-steps");
  const std::size_t batch = bench::flag_size(args, "batch");
  const double lr = args.get_double("lr");

  bench::print_header("Table 1: Simulation hyperparameters",
                      "CIFAR-10 and FEMNIST configurations");

  const auto& cifar = energy::workload_spec(energy::Workload::kCifar10);
  const auto& femnist = energy::workload_spec(energy::Workload::kFemnist);

  util::TablePrinter table(
      {"Hyperparameter", "Description", "CIFAR-10", "FEMNIST"});
  table.add_row({"eta", "Learning rate", "0.1", "0.1"});
  table.add_row({"|xi|", "Batch size", std::to_string(cifar.batch_size),
                 std::to_string(femnist.batch_size)});
  table.add_row({"E", "Local steps", std::to_string(cifar.local_steps),
                 std::to_string(femnist.local_steps)});
  table.add_row({"|x|", "Model size", std::to_string(cifar.model_params),
                 std::to_string(femnist.model_params)});
  table.add_row({"T", "Total number of rounds",
                 std::to_string(cifar.total_rounds),
                 std::to_string(femnist.total_rounds)});
  table.print();

  // Verify the model zoo matches |x| exactly.
  const std::size_t cifar_params = nn::make_cifar_cnn().num_parameters();
  const std::size_t femnist_params = nn::make_femnist_cnn().num_parameters();
  std::printf("\nmodel zoo parameter counts: cifar_cnn=%zu (paper %zu)  "
              "femnist_cnn=%zu (paper %zu)\n",
              cifar_params, nn::kPaperCifarModelSize, femnist_params,
              nn::kPaperFemnistModelSize);

  std::printf("\nGN-LeNet (CIFAR-10) architecture:\n%s",
              nn::make_cifar_cnn().summary().c_str());
  std::printf("\nLEAF CNN (FEMNIST) architecture:\n%s",
              nn::make_femnist_cnn().summary().c_str());

  std::printf("\nscaled bench defaults: nodes=%zu rounds=%zu E=%zu "
              "batch=%zu lr=%.3f\n",
              nodes, rounds, local_steps, batch, lr);
  return 0;
}
