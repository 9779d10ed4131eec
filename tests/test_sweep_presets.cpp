// Pins what every sweep preset builds, under each parameterisation its
// callers use: the trial count, the FNV-1a-64 of the trials' checkpoint
// fingerprints in index order (ckpt::trial_fingerprint covers every field a
// trial runs with), and the grid fields callers read after make_preset
// (name, datasets, data.nodes, keep_generations). A preset that changes
// what it runs changes a row here.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "ckpt/trial_store.hpp"
#include "sweep/sweep.hpp"

namespace skiptrain::sweep {
namespace {

/// The PresetParams a pin row is built under.
PresetParams params_for(const std::string& label) {
  PresetParams params;
  if (label == "full") {
    params.full = true;
  } else if (label == "eval7") {
    params.eval_every = 7;
  } else if (label == "gamma2") {
    params.gamma_max = 2;
  } else if (label == "femnist") {
    params.dataset = "femnist";
  } else if (label == "bench_table3") {  // benchmark mlp_table3
    params.rounds = 20;
  } else if (label == "bench_large_fleet") {  // benchmark fleet_10k
    params.rounds = 60;
    params.eval_every = 20;
  } else if (label == "bench_chaotic_fleet") {  // benchmark chaos_256
    params.nodes = 256;
    params.rounds = 90;
    params.local_steps = 2;
    params.eval_every = 30;
  } else if (label != "default") {
    ADD_FAILURE() << "unknown params label " << label;
  }
  return params;
}

std::uint64_t fnv1a64(std::uint64_t hash, const std::string& text) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

struct PresetPin {
  const char* preset;
  const char* params;
  std::size_t trials;
  std::uint64_t fingerprint_fnv;
  const char* datasets;  // comma-joined grid.datasets
  std::size_t nodes;     // grid.data.nodes
  std::size_t keep_generations;
};

// clang-format off
constexpr PresetPin kPins[] = {
    {"fig3", "default", 48, 0xeb297b63d10514f5ULL, "cifar", 32, 1},
    {"fig3", "full", 48, 0x85aac3434a8f51fdULL, "cifar", 256, 1},
    {"fig3", "eval7", 48, 0x8d2e201a481d247dULL, "cifar", 32, 1},
    {"fig3", "gamma2", 12, 0x301bfe21149ca3c5ULL, "cifar", 32, 1},
    {"fig3", "femnist", 48, 0xee260cd574f512ddULL, "femnist", 32, 1},
    {"fig5", "default", 12, 0xcb2a71be2223eb73ULL, "cifar,femnist", 64, 1},
    {"fig5", "full", 12, 0x174cad8e965574cdULL, "cifar,femnist", 256, 1},
    {"fig5", "eval7", 12, 0x50c11475fbba8a3dULL, "cifar,femnist", 64, 1},
    {"fig5", "gamma2", 12, 0xcb2a71be2223eb73ULL, "cifar,femnist", 64, 1},
    {"fig5", "femnist", 6, 0x658a9a5fa27aa29cULL, "femnist", 64, 1},
    {"fig6", "default", 9, 0xe5e721f62720dd4eULL, "cifar", 64, 1},
    {"fig6", "full", 9, 0x3f5a6df81db97dc4ULL, "cifar", 256, 1},
    {"fig6", "eval7", 9, 0x1b47c9e265347892ULL, "cifar", 64, 1},
    {"fig6", "gamma2", 9, 0xe5e721f62720dd4eULL, "cifar", 64, 1},
    {"fig6", "femnist", 9, 0x8cdaffdb887b8053ULL, "femnist", 64, 1},
    {"table3", "default", 12, 0xf3d47dd9b7819e8dULL, "cifar,femnist", 64, 1},
    {"table3", "full", 12, 0xf8c9f095de3a24ddULL, "cifar,femnist", 256, 1},
    {"table3", "eval7", 12, 0xa540ab611bceecb5ULL, "cifar,femnist", 64, 1},
    {"table3", "gamma2", 12, 0xf3d47dd9b7819e8dULL, "cifar,femnist", 64, 1},
    {"table3", "femnist", 6, 0xa69e78fbae33f90eULL, "femnist", 64, 1},
    {"table3", "bench_table3", 12, 0x37bf21680e3069ULL, "cifar,femnist", 64, 1},
    {"quant", "default", 64, 0xffce2400c0e7d35ULL, "cifar", 32, 1},
    {"quant", "full", 64, 0x7145805c1ea59075ULL, "cifar", 256, 1},
    {"quant", "eval7", 64, 0x152deb8cea64e3c5ULL, "cifar", 32, 1},
    {"quant", "gamma2", 16, 0xa19bcb4bec34d825ULL, "cifar", 32, 1},
    {"quant", "femnist", 64, 0x9e8596dcddb4c1a5ULL, "femnist", 32, 1},
    {"smartphone", "default", 3, 0xdc31de78bcc50870ULL, "cifar", 64, 1},
    {"smartphone", "full", 3, 0x4ac5df2ef0a6602fULL, "cifar", 256, 1},
    {"smartphone", "eval7", 3, 0xa821c7b095a3fe42ULL, "cifar", 64, 1},
    {"smartphone", "gamma2", 3, 0xdc31de78bcc50870ULL, "cifar", 64, 1},
    {"smartphone", "femnist", 3, 0x4f8f78d071d7d607ULL, "femnist", 64, 1},
    {"solar_sensor_fleet", "default", 6, 0xdc65e9316889e57cULL, "cifar", 32, 1},
    {"solar_sensor_fleet", "full", 6, 0x7443db2ee4f7ead6ULL, "cifar", 256, 1},
    {"solar_sensor_fleet", "eval7", 6, 0x3d1565977365fb6eULL, "cifar", 32, 1},
    {"solar_sensor_fleet", "gamma2", 6, 0xdc65e9316889e57cULL, "cifar", 32, 1},
    {"solar_sensor_fleet", "femnist", 6, 0xbf5b2318f421182eULL, "femnist", 32, 1},
    {"churning_phone_fleet", "default", 3, 0x71207f64d7a1a50eULL, "cifar", 32, 1},
    {"churning_phone_fleet", "full", 3, 0xbdc63d4e2d37ea14ULL, "cifar", 256, 1},
    {"churning_phone_fleet", "eval7", 3, 0x28d83c03d1164e45ULL, "cifar", 32, 1},
    {"churning_phone_fleet", "gamma2", 3, 0x71207f64d7a1a50eULL, "cifar", 32, 1},
    {"churning_phone_fleet", "femnist", 3, 0xaa4080f9bc0c8e3ULL, "femnist", 32, 1},
    {"chaotic_fleet", "default", 4, 0xb99dbb9194c5b4e1ULL, "cifar", 32, 3},
    {"chaotic_fleet", "full", 4, 0x4cfc7ab4b00fc877ULL, "cifar", 256, 3},
    {"chaotic_fleet", "eval7", 4, 0x8a4e333882cc12dfULL, "cifar", 32, 3},
    {"chaotic_fleet", "gamma2", 4, 0xb99dbb9194c5b4e1ULL, "cifar", 32, 3},
    {"chaotic_fleet", "femnist", 4, 0x44fcd4378c404df5ULL, "femnist", 32, 3},
    {"chaotic_fleet", "bench_chaotic_fleet", 4, 0x9e854bbdbf9b4c61ULL, "cifar", 256, 3},
    {"large_fleet", "default", 1, 0x6c9094e450f6727aULL, "cifar", 10000, 1},
    // full: 256 nodes at the paper horizon (T = 1000), like every preset.
    {"large_fleet", "full", 1, 0xb64e433743ce8068ULL, "cifar", 256, 1},
    {"large_fleet", "eval7", 1, 0xbcaa114a872136b1ULL, "cifar", 10000, 1},
    {"large_fleet", "gamma2", 1, 0x6c9094e450f6727aULL, "cifar", 10000, 1},
    {"large_fleet", "femnist", 1, 0x9b1f020e30786228ULL, "femnist", 10000, 1},
    {"large_fleet", "bench_large_fleet", 1, 0xc1f49788d1ebde56ULL, "cifar", 10000, 1},
};
// clang-format on

constexpr const char* kGenericLabels[] = {"default", "full", "eval7",
                                          "gamma2", "femnist"};

TEST(PresetPin, EveryPresetUnderEveryParameterisation) {
  for (const PresetPin& pin : kPins) {
    SCOPED_TRACE(std::string(pin.preset) + " / " + pin.params);
    const SweepGrid grid = make_preset(pin.preset, params_for(pin.params));
    const std::vector<TrialSpec> trials = grid.expand();
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const TrialSpec& spec : trials) {
      hash = fnv1a64(hash, ckpt::trial_fingerprint(spec) + "\n");
    }
    std::string datasets;
    for (const std::string& dataset : grid.datasets) {
      datasets += (datasets.empty() ? "" : ",") + dataset;
    }
    EXPECT_EQ(grid.name, pin.preset);
    EXPECT_EQ(grid.trial_count(), trials.size());
    const bool same = trials.size() == pin.trials &&
                      hash == pin.fingerprint_fnv &&
                      datasets == pin.datasets && grid.data.nodes == pin.nodes &&
                      grid.keep_generations == pin.keep_generations;
    EXPECT_TRUE(same) << "built: {\"" << pin.preset << "\", \"" << pin.params
                      << "\", " << trials.size() << ", 0x" << std::hex << hash
                      << std::dec << "ULL, \"" << datasets << "\", "
                      << grid.data.nodes << ", " << grid.keep_generations
                      << "},";
  }
}

TEST(PresetPin, TableCoversEveryPresetAndParameterisation) {
  for (const std::string& name : preset_names()) {
    for (const char* label : kGenericLabels) {
      bool found = false;
      for (const PresetPin& pin : kPins) {
        found = found || (name == pin.preset && std::string(label) == pin.params);
      }
      EXPECT_TRUE(found) << name << " / " << label << " has no pin row";
    }
  }
}

}  // namespace
}  // namespace skiptrain::sweep
