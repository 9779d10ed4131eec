#include "ckpt/fleet_image.hpp"

#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "ckpt/io.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"

namespace skiptrain::ckpt {

namespace {

constexpr char kMagic[4] = {'S', 'K', 'T', 'F'};

/// The engine-kind byte that follows the header. RoundEngine (0) is the
/// only engine; kind 1 belonged to the retired asynchronous engine.
constexpr std::uint8_t kKindRoundEngine = 0;

void read_engine_kind(ImageReader& reader, const std::string& what) {
  const std::uint8_t kind = reader.u8();
  if (kind != kKindRoundEngine) {
    throw std::runtime_error("fleet image: " + what +
                             " has unsupported engine kind " +
                             std::to_string(kind));
  }
}

void write_experiment(ImageWriter& writer, const ExperimentState& state) {
  writer.u64(state.records.size());
  for (const metrics::RoundRecord& record : state.records) {
    write_round_record(writer, record);
  }
  writer.u64(state.coordinated_training_rounds);
}

ExperimentState read_experiment(ImageReader& reader) {
  ExperimentState state;
  const std::uint64_t count =
      reader.bounded_count(kRoundRecordWireBytes, "round record");
  state.records.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    state.records.push_back(read_round_record(reader));
  }
  state.coordinated_training_rounds = reader.u64();
  return state;
}

/// Writes header + kind/flag bytes + engine payload (+ experiment
/// section) atomically, each section sealed with its CRC32C.
void save_image(const sim::RoundEngine& engine,
                const ExperimentState* experiment, const std::string& path,
                const IoFaultPolicy* io_faults = nullptr) {
  atomic_write(
      path,
      [&](std::ostream& out) {
        write_header(out, kMagic, kFleetImageVersion);
        ImageWriter writer(out);
        writer.u8(kKindRoundEngine);
        writer.u8(experiment != nullptr ? 1 : 0);
        // The configuration fingerprint precedes the engine payload so a
        // resume can reject a stale image BEFORE mutating any engine
        // state.
        if (experiment != nullptr) writer.str(experiment->fingerprint);
        writer.section_crc();
        engine.save_state(writer);
        writer.section_crc();
        if (experiment != nullptr) {
          write_experiment(writer, *experiment);
          writer.section_crc();
        }
      },
      io_faults);
}

/// Opens + validates the file and hands a bounded reader positioned at
/// the engine payload to `body(reader, has_experiment, fingerprint)`;
/// rejects trailing bytes afterwards unless the body bails early by
/// returning false (e.g. a fingerprint mismatch that leaves the payload
/// unconsumed on purpose). Returns the body's verdict.
template <typename Body>
bool load_image(const std::string& path, bool want_experiment,
                Body&& body) {
  OBS_SPAN("ckpt.load");
  static const obs::Counter files = obs::counter("ckpt.files_read");
  static const obs::Counter bytes = obs::counter("ckpt.bytes_read");
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("fleet image: cannot open " + path);
  const std::uint64_t payload_bytes = read_header(
      in, file_size_bytes(path), kMagic, kFleetImageVersion, path);
  ImageReader reader(in, payload_bytes);
  read_engine_kind(reader, path);
  const bool has_experiment = reader.u8() != 0;
  if (want_experiment && !has_experiment) {
    throw std::runtime_error("fleet image: " + path +
                             " has no experiment section");
  }
  const std::string fingerprint = has_experiment ? reader.str() : "";
  reader.check_section_crc(path + " prefix");
  if (!body(reader, has_experiment, fingerprint)) return false;
  reader.require_exhausted(path);
  files.add(1);
  bytes.add(payload_bytes + kHeaderBytes);
  return true;
}

}  // namespace

FleetImageInfo probe_fleet_image(std::istream& in, std::uint64_t file_bytes,
                                 const std::string& what) {
  const std::uint64_t payload_bytes =
      read_header(in, file_bytes, kMagic, kFleetImageVersion, what);
  ImageReader reader(in, payload_bytes);
  FleetImageInfo info;
  read_engine_kind(reader, what);
  info.has_experiment = reader.u8() != 0;
  if (info.has_experiment) (void)reader.str();  // configuration fingerprint
  // The prefix checksum makes the probe trustworthy on its own: a torn
  // or bit-flipped image is rejected here, before a resume decision is
  // based on its metadata.
  reader.check_section_crc(what + " prefix");
  info.nodes = reader.u64();
  info.dim = reader.u64();
  info.round = reader.u64();
  return info;
}

FleetImageInfo probe_fleet_image(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("fleet image: cannot open " + path);
  return probe_fleet_image(in, file_size_bytes(path), path);
}

void save_fleet_image(const sim::RoundEngine& engine,
                      const std::string& path) {
  save_image(engine, nullptr, path);
}

void restore_fleet_image(sim::RoundEngine& engine, const std::string& path) {
  (void)load_image(path, /*want_experiment=*/false,
                   [&](ImageReader& reader, bool has_experiment,
                       const std::string&) {
                     engine.restore_state(reader);
                     reader.check_section_crc(path + " engine payload");
                     // Engine-only restores of an experiment image are
                     // legal (e.g. post-mortem inspection); drain the
                     // section so the trailing-byte check still holds.
                     if (has_experiment) {
                       (void)read_experiment(reader);
                       reader.check_section_crc(path + " experiment");
                     }
                     return true;
                   });
}

void save_experiment_image(const sim::RoundEngine& engine,
                           const ExperimentState& experiment,
                           const std::string& path,
                           const IoFaultPolicy* io_faults) {
  save_image(engine, &experiment, path, io_faults);
}

bool restore_experiment_image(sim::RoundEngine& engine,
                              ExperimentState& experiment,
                              const std::string& path,
                              const std::string& expected_fingerprint) {
  return load_image(
      path, /*want_experiment=*/true,
      [&](ImageReader& reader, bool, const std::string& fingerprint) {
        // A stale image (edited configuration) is rejected here, BEFORE
        // any engine state is touched — the caller starts fresh.
        if (!expected_fingerprint.empty() &&
            fingerprint != expected_fingerprint) {
          return false;
        }
        engine.restore_state(reader);
        reader.check_section_crc(path + " engine payload");
        experiment = read_experiment(reader);
        reader.check_section_crc(path + " experiment");
        experiment.fingerprint = fingerprint;
        return true;
      });
}

void write_round_record(ImageWriter& writer,
                        const metrics::RoundRecord& record) {
  writer.u64(record.round);
  writer.u8(record.training_round ? 1 : 0);
  writer.f64(record.mean_accuracy);
  writer.f64(record.std_accuracy);
  writer.f64(record.mean_loss);
  writer.f64(record.allreduce_accuracy);
  writer.f64(record.train_energy_wh);
  writer.f64(record.comm_energy_wh);
  writer.u64(record.nodes_trained);
  writer.f64(record.consensus);
}

void rotate_generations(const std::string& path, std::size_t keep) {
  if (keep <= 1) return;
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) return;
  // Oldest first: path.g{keep-2} -> path.g{keep-1}, ..., path -> path.g1.
  // Renames are best-effort (a missing intermediate generation is normal
  // early in a run); the newest image is the one whose loss would hurt,
  // and its slot is vacated last.
  for (std::size_t g = keep - 1; g >= 2; --g) {
    const std::string from = path + ".g" + std::to_string(g - 1);
    if (std::filesystem::exists(from, ec) && !ec) {
      std::filesystem::rename(from, path + ".g" + std::to_string(g), ec);
    }
  }
  std::filesystem::rename(path, path + ".g1", ec);
}

std::vector<std::string> generation_paths(const std::string& path,
                                          std::size_t keep) {
  std::vector<std::string> paths{path};
  for (std::size_t g = 1; g < keep; ++g) {
    paths.push_back(path + ".g" + std::to_string(g));
  }
  return paths;
}

void remove_generations(const std::string& path, std::size_t keep) {
  std::error_code ec;
  for (const std::string& candidate :
       generation_paths(path, keep == 0 ? 1 : keep)) {
    std::filesystem::remove(candidate, ec);
  }
}

metrics::RoundRecord read_round_record(ImageReader& reader) {
  metrics::RoundRecord record;
  record.round = static_cast<std::size_t>(reader.u64());
  record.training_round = reader.u8() != 0;
  record.mean_accuracy = reader.f64();
  record.std_accuracy = reader.f64();
  record.mean_loss = reader.f64();
  record.allreduce_accuracy = reader.f64();
  record.train_energy_wh = reader.f64();
  record.comm_energy_wh = reader.f64();
  record.nodes_trained = static_cast<std::size_t>(reader.u64());
  record.consensus = reader.f64();
  return record;
}

}  // namespace skiptrain::ckpt
