// Regenerates Figure 7: per-node class distributions of the two workloads
// for the first 10 nodes, as an ASCII dot plot plus summary heterogeneity
// statistics. The point (paper §4.7): the 2-shard CIFAR split confines each
// node to ~2 classes while FEMNIST writers cover most classes.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace skiptrain;
  util::ArgParser args("fig7_class_dist",
                       "Figure 7: class distributions across nodes");
  bench::add_common_flags(args);
  args.add_int("show-nodes", 10, "how many nodes to plot");
  bench::parse_flags(args, argc, argv);

  const std::size_t show = bench::flag_size(args, "show-nodes");
  const bench::Workbench cifar = bench::make_cifar_bench(args);

  bench::print_header("Figure 7: class distribution, first 10 nodes",
                      "dot size = sample count of class c at node i");

  const auto cifar_counts = data::class_distribution(cifar.data);
  std::printf("\nCIFAR-10 (2-shard non-IID):\n%s",
              data::render_distribution_plot(cifar_counts, show).c_str());

  const bench::Workbench femnist = bench::make_femnist_bench(args);
  const auto femnist_counts = data::class_distribution(femnist.data);
  std::printf("\nFEMNIST (natural by-writer):\n%s",
              data::render_distribution_plot(femnist_counts, show).c_str());

  const auto cifar_distinct = data::distinct_classes_per_node(cifar_counts);
  const auto femnist_distinct =
      data::distinct_classes_per_node(femnist_counts);
  const auto mean_of = [](const std::vector<std::size_t>& values) {
    double total = 0.0;
    for (const std::size_t v : values) total += static_cast<double>(v);
    return values.empty() ? 0.0 : total / static_cast<double>(values.size());
  };

  util::TablePrinter table({"dataset", "classes", "mean distinct/node",
                            "heterogeneity (TV)"});
  table.add_row({"CIFAR-10 (2-shard)", "10",
                 util::fixed(mean_of(cifar_distinct), 2),
                 util::fixed(data::heterogeneity_index(cifar_counts), 3)});
  table.add_row({"FEMNIST (natural)", "62",
                 util::fixed(mean_of(femnist_distinct), 2),
                 util::fixed(data::heterogeneity_index(femnist_counts), 3)});
  table.print();

  std::printf("\npaper shape: CIFAR nodes hold ~2 of 10 classes (severe "
              "label skew); FEMNIST writers cover most of the 62 classes.\n");
  return 0;
}
