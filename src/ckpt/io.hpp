// Hardened binary checkpoint IO shared by every on-disk image format in
// the system (ckpt/fleet_image fleet images, ckpt/trial_store sweep
// results).
//
// Two rules make the formats safe against truncated, corrupted, or
// hostile files:
//
//   1. Every read is bounded. An ImageReader is constructed with the
//      payload size (file size minus header) and refuses any read past
//      it. Length-prefixed vector reads validate the element count
//      against the REMAINING bytes before allocating, so a hostile count
//      can neither overflow `count * sizeof(T)` nor trigger a
//      multi-terabyte allocation.
//   2. Every byte is accounted for. require_exhausted() rejects files
//      with trailing garbage after the payload — a truncated-then-
//      concatenated or maliciously padded image never half-loads.
//
// Writes are crash-safe via atomic_write: the payload lands in
// `<path>.tmp` and is renamed over `path` only after a successful flush,
// so a process killed mid-checkpoint leaves the previous image intact.
//
// Integers and floats are stored in native (little-endian on every
// supported target) byte order; images are an on-disk cache for the
// machine that wrote them, not an interchange format.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "fault/crc32c.hpp"
#include "fault/fault.hpp"

namespace skiptrain::ckpt {

/// Typed, size-checked writes onto a binary output stream. Throws
/// std::runtime_error when the underlying stream fails.
///
/// Every write feeds a running CRC32C; section_crc() emits the checksum
/// of everything written since the previous mark (the CRC bytes
/// themselves are excluded) and resets the accumulator — the hook behind
/// the per-section checksums of fleet images (v2+).
class ImageWriter {
 public:
  explicit ImageWriter(std::ostream& out) : out_(out) {}

  void bytes(const void* data, std::size_t size);

  void u8(std::uint8_t value) { bytes(&value, sizeof(value)); }
  void u32(std::uint32_t value) { bytes(&value, sizeof(value)); }
  void u64(std::uint64_t value) { bytes(&value, sizeof(value)); }
  void f64(double value) { bytes(&value, sizeof(value)); }

  /// u64 length prefix + raw bytes.
  void str(const std::string& text);

  /// Raw float32 blob with NO length prefix — the caller's format fixes
  /// the element count (e.g. the [n × dim] plane blob). One contiguous
  /// write, mirroring the one contiguous read on restore.
  void f32_blob(std::span<const float> values);

  /// u64 count + raw elements.
  void f32_vec(std::span<const float> values);
  void f64_vec(std::span<const double> values);
  void u64_vec(std::span<const std::size_t> values);

  /// Writes the CRC32C of every byte since the last mark (u32, excluded
  /// from the accumulation) and starts a new section.
  void section_crc();

 private:
  std::ostream& out_;
  std::uint32_t crc_ = fault::kCrc32cInit;
};

/// Typed, bounds-checked reads from a binary input stream holding exactly
/// `payload_bytes` of payload. All failures throw std::runtime_error.
class ImageReader {
 public:
  ImageReader(std::istream& in, std::uint64_t payload_bytes)
      : in_(in), remaining_(payload_bytes) {}

  void bytes(void* data, std::size_t size);

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();

  /// Bounded counterpart of ImageWriter::str. `max_bytes` guards against
  /// absurd length prefixes independent of the remaining-byte bound.
  std::string str(std::size_t max_bytes = std::size_t{1} << 20);

  /// Fills `out` from a raw (unprefixed) float32 blob.
  void f32_blob(std::span<float> out);

  std::vector<float> f32_vec();
  std::vector<double> f64_vec();
  std::vector<std::size_t> u64_vec();

  std::uint64_t remaining() const { return remaining_; }

  /// Reads a u64 length prefix and validates it against the remaining
  /// payload BEFORE any allocation happens: `count * element_size` can
  /// neither overflow nor exceed what the file actually holds. Used by
  /// every vector read here and by callers looping over variable-size
  /// elements (pass the element's minimum serialized size).
  std::uint64_t bounded_count(std::size_t element_size,
                              const char* context);

  /// Rejects trailing bytes: every valid image consumes its payload
  /// exactly. `what` names the file/format for the error message.
  void require_exhausted(const std::string& what) const;

  /// Counterpart of ImageWriter::section_crc: reads the stored u32 (not
  /// fed to the accumulator), compares it against the CRC32C of every
  /// byte read since the last mark, throws std::runtime_error naming
  /// `what` on mismatch, and starts a new section.
  void check_section_crc(const std::string& what);

 private:
  /// Bounded read that bypasses the CRC accumulator (the stored CRC
  /// bytes themselves).
  void raw_bytes(void* data, std::size_t size);

  std::istream& in_;
  std::uint64_t remaining_;
  std::uint32_t crc_ = fault::kCrc32cInit;
};

/// 4-byte magic + u32 format version — the header every image format
/// shares (model checkpoints use "SKTN", fleet images "SKTF", trial
/// results "SKTR").
inline constexpr std::size_t kHeaderBytes = 4 + sizeof(std::uint32_t);

void write_header(std::ostream& out, const char magic[4],
                  std::uint32_t version);

/// Validates magic and version against the file's first kHeaderBytes and
/// returns the payload size (`file_bytes - kHeaderBytes`). `what` names
/// the file for error messages.
std::uint64_t read_header(std::istream& in, std::uint64_t file_bytes,
                          const char magic[4], std::uint32_t version,
                          const std::string& what);

/// Size of `path` in bytes; throws std::runtime_error when the file does
/// not exist or is not a regular file.
std::uint64_t file_size_bytes(const std::string& path);

/// Deterministic disk-IO chaos for atomic_write: when a fault plan with
/// io:P is active, each write attempt draws from the stateless stream
/// keyed on (seed, path hash, attempt). Failed attempts retry with
/// virtual-time backoff (counted, never slept — simulation time is not
/// wall time) up to plan.io_retries extra attempts before the failure
/// propagates as the same std::runtime_error a real full disk would.
struct IoFaultPolicy {
  fault::FaultPlan plan;      // io_fail_prob / io_retries are consulted
  std::uint64_t seed = 0;     // experiment seed
};

/// Writes `payload(out)` into `<path>.tmp`, flushes, then renames over
/// `path` — so an existing image survives a crash mid-write. With a
/// non-null `io_faults` policy, injected write failures are retried
/// deterministically as described on IoFaultPolicy.
void atomic_write(const std::string& path,
                  const std::function<void(std::ostream&)>& payload,
                  const IoFaultPolicy* io_faults = nullptr);

}  // namespace skiptrain::ckpt
