// CRC32C (Castagnoli, reflected polynomial 0x82F63B78) — the integrity
// check behind the fault layer's wire frames and the per-section
// checksums on fleet images.
//
// Two implementations of the one function. On x86-64 hosts whose CPU
// reports SSE4.2, crc32c_update runs the `crc32` instruction 8 bytes per
// step; elsewhere it runs the portable slicing-by-4 table, which reads
// bytes one at a time and so gives the same output on every byte order.
// The CPU, probed once per process, picks the path: no option, variable
// or build switch does. Both compute the same CRC, so every frame and
// image checksum is bit-identical whichever path ran; the portable path
// stays public as the tests' oracle. The incremental form (`update`) lets
// ckpt::ImageWriter/ImageReader accumulate a running CRC across many
// small writes without buffering a section.
#pragma once

#include <cstddef>
#include <cstdint>

namespace skiptrain::fault {

/// Incremental CRC32C: feeds `bytes` into a running crc. Start from
/// `kCrc32cInit` and finish with `crc32c_finish` (or use crc32c()).
inline constexpr std::uint32_t kCrc32cInit = 0xffffffffU;

[[nodiscard]] std::uint32_t crc32c_update(std::uint32_t crc, const void* data,
                                          std::size_t bytes);

/// The slicing-by-4 table path, whatever the CPU: crc32c_update's
/// fallback and its reference.
[[nodiscard]] std::uint32_t crc32c_update_portable(std::uint32_t crc,
                                                   const void* data,
                                                   std::size_t bytes);

/// The path crc32c_update takes on this host: "sse4.2" or "portable".
[[nodiscard]] const char* crc32c_isa();

[[nodiscard]] inline constexpr std::uint32_t crc32c_finish(std::uint32_t crc) {
  return crc ^ 0xffffffffU;
}

/// One-shot CRC32C of a buffer.
[[nodiscard]] inline std::uint32_t crc32c(const void* data,
                                          std::size_t bytes) {
  return crc32c_finish(crc32c_update(kCrc32cInit, data, bytes));
}

}  // namespace skiptrain::fault
