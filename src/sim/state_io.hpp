// Internal helpers behind RoundEngine::save_state/restore_state: the
// identity prefix, accountant, fault-stats and per-node sub-payloads of a
// fleet image.
//
// Not part of the public API — include only from engine implementation
// files. The file-level format (header, engine kind, probing) lives in
// ckpt/fleet_image.
#pragma once

#include <bit>
#include <stdexcept>
#include <string>

#include "ckpt/io.hpp"
#include "energy/accountant.hpp"
#include "fault/fault.hpp"
#include "quant/codec.hpp"
#include "sim/node.hpp"

namespace skiptrain::sim::detail {

/// The construction parameters an engine payload is only valid against —
/// EVERY config knob that influences future rounds, so a restore into a
/// differently-configured engine is rejected instead of silently
/// diverging. Serialized as the payload prefix (with the round counter) —
/// one byte layout, one validation path.
struct EngineIdentity {
  std::uint64_t nodes = 0;
  std::uint64_t dim = 0;
  std::uint64_t seed = 0;
  quant::Codec codec = quant::Codec::kIdentity;
  std::uint64_t sparse_k = 0;  // 0 = dense exchange
  std::uint64_t local_steps = 0;
  std::uint64_t batch_size = 0;
  std::uint32_t lr_bits = 0;  // bit pattern of the float learning rate
  /// Hash of the remaining identity inputs (scenario, non-dense topology,
  /// fault plan); 0 when none is active, so older images keep their bytes.
  std::uint64_t aux_bits = 0;
  std::string scheduler;
};

inline void write_identity(ckpt::ImageWriter& writer,
                           const EngineIdentity& identity,
                           std::uint64_t round) {
  writer.u64(identity.nodes);
  writer.u64(identity.dim);
  writer.u64(round);
  writer.u64(identity.seed);
  writer.u8(static_cast<std::uint8_t>(identity.codec));
  writer.u64(identity.sparse_k);
  writer.u64(identity.local_steps);
  writer.u64(identity.batch_size);
  writer.u32(identity.lr_bits);
  writer.u64(identity.aux_bits);
  writer.str(identity.scheduler);
}

/// Reads the payload prefix, throws std::runtime_error naming the FIRST
/// field that differs from `expected`, and returns the image's round
/// counter.
inline std::uint64_t read_validated_identity(
    ckpt::ImageReader& reader, const EngineIdentity& expected) {
  const auto mismatch = [](const char* field, const std::string& image,
                           const std::string& engine) {
    return std::runtime_error("fleet image: " + std::string(field) +
                              " mismatch (image " + image + ", engine " +
                              engine + ")");
  };
  const std::uint64_t nodes = reader.u64();
  const std::uint64_t dim = reader.u64();
  if (nodes != expected.nodes || dim != expected.dim) {
    throw mismatch("fleet shape",
                   std::to_string(nodes) + "x" + std::to_string(dim),
                   std::to_string(expected.nodes) + "x" +
                       std::to_string(expected.dim));
  }
  const std::uint64_t round = reader.u64();
  const std::uint64_t seed = reader.u64();
  if (seed != expected.seed) {
    throw mismatch("seed", std::to_string(seed),
                   std::to_string(expected.seed));
  }
  const auto codec = static_cast<quant::Codec>(reader.u8());
  if (codec != expected.codec) {
    throw mismatch("exchange codec",
                   std::to_string(static_cast<int>(codec)),
                   std::to_string(static_cast<int>(expected.codec)));
  }
  const std::uint64_t sparse_k = reader.u64();
  if (sparse_k != expected.sparse_k) {
    throw mismatch("sparse exchange k", std::to_string(sparse_k),
                   std::to_string(expected.sparse_k));
  }
  const std::uint64_t local_steps = reader.u64();
  if (local_steps != expected.local_steps) {
    throw mismatch("local steps", std::to_string(local_steps),
                   std::to_string(expected.local_steps));
  }
  const std::uint64_t batch_size = reader.u64();
  if (batch_size != expected.batch_size) {
    throw mismatch("batch size", std::to_string(batch_size),
                   std::to_string(expected.batch_size));
  }
  const std::uint32_t lr_bits = reader.u32();
  if (lr_bits != expected.lr_bits) {
    throw mismatch("learning rate",
                   std::to_string(std::bit_cast<float>(lr_bits)),
                   std::to_string(std::bit_cast<float>(expected.lr_bits)));
  }
  const std::uint64_t aux_bits = reader.u64();
  if (aux_bits != expected.aux_bits) {
    throw mismatch("engine parameter", std::to_string(aux_bits),
                   std::to_string(expected.aux_bits));
  }
  const std::string scheduler = reader.str();
  if (scheduler != expected.scheduler) {
    throw mismatch("scheduler", "'" + scheduler + "'",
                   "'" + expected.scheduler + "'");
  }
  return round;
}

inline void write_accountant(ckpt::ImageWriter& writer,
                             const energy::EnergyAccountant& accountant) {
  writer.u64(accountant.model_params());
  const energy::EnergyAccountant::State state = accountant.capture_state();
  writer.f64_vec(state.training_mwh);
  writer.f64_vec(state.comm_mwh);
  writer.u64_vec(state.training_rounds);
  writer.u64_vec(state.budget);
}

inline void read_accountant(ckpt::ImageReader& reader,
                            energy::EnergyAccountant& accountant) {
  const std::uint64_t model_params = reader.u64();
  if (model_params != accountant.model_params()) {
    throw std::runtime_error(
        "fleet image: billed model size mismatch (image " +
        std::to_string(model_params) + ", engine " +
        std::to_string(accountant.model_params()) + ")");
  }
  energy::EnergyAccountant::State state;
  state.training_mwh = reader.f64_vec();
  state.comm_mwh = reader.f64_vec();
  state.training_rounds = reader.u64_vec();
  state.budget = reader.u64_vec();
  try {
    accountant.restore_state(std::move(state));
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("fleet image: ") + e.what());
  }
}

/// Fault tallies are simulation state (they feed the summary CSV), so a
/// resumed run carries them forward; the draws themselves are stateless.
/// The engine appends them last, only when the fault plan — which is
/// part of the identity aux bits — is enabled, so fault-free images keep
/// their layout.
inline void write_fault_stats(ckpt::ImageWriter& writer,
                              const fault::FaultStats& stats) {
  writer.u64(stats.attempted_deliveries);
  writer.u64(stats.dropped);
  writer.u64(stats.corrupt);
  writer.u64(stats.duplicated);
  writer.u64(stats.crash_down_rounds);
}

inline void read_fault_stats(ckpt::ImageReader& reader,
                             fault::FaultStats& stats) {
  stats.attempted_deliveries = reader.u64();
  stats.dropped = reader.u64();
  stats.corrupt = reader.u64();
  stats.duplicated = reader.u64();
  stats.crash_down_rounds = reader.u64();
}

inline void write_node_state(ckpt::ImageWriter& writer, const Node& node) {
  const util::Rng::State rng = node.rng().state();
  for (const std::uint64_t word : rng.s) writer.u64(word);
  writer.f64(rng.cached_normal);
  writer.u8(rng.has_cached_normal ? 1 : 0);
  writer.f32_vec(node.optimizer().velocity());
}

inline void read_node_state(ckpt::ImageReader& reader, Node& node) {
  util::Rng::State rng;
  for (auto& word : rng.s) word = reader.u64();
  rng.cached_normal = reader.f64();
  rng.has_cached_normal = reader.u8() != 0;
  node.rng().set_state(rng);
  node.optimizer().set_velocity(reader.f32_vec());
}

}  // namespace skiptrain::sim::detail
