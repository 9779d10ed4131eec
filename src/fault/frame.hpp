// CRC32C-framed wire format for QuantizedRow exchanges.
//
// With a fault plan active, every row crossing the simulated wire is
// serialized into a frame:
//
//   [magic u32 "SKWF"] [payload_bytes u32] [crc32c u32] [payload]
//
// where the payload is the QuantizedRow's codec id, round, dim and the
// active codec family's storage vectors. Receivers verify the CRC (and
// every structural bound) before decoding; a frame whose check fails is
// treated as a dropped message, which is exactly how the engine degrades
// for explicit drops — lost neighbor mass reverts to self through the
// masked-aggregation difference form.
//
// Framing is deterministic (pure function of the row bytes), so framed
// exchanges stay bit-identical across thread counts; corruption is
// injected by flipping one seed-derived bit of a frame copy.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "quant/codec.hpp"

namespace skiptrain::fault {

inline constexpr std::uint32_t kFrameMagic = 0x46574b53U;  // "SKWF" LE
inline constexpr std::size_t kFrameHeaderBytes = 3 * sizeof(std::uint32_t);

/// Fixed per-frame overhead on top of the codec's data bytes: the header
/// plus the payload's codec id, round, dim and the five vector length
/// prefixes (encode_frame's layout). Engines add this to their exact
/// per-row wire tally when framing is active.
inline constexpr std::size_t kFrameOverheadBytes =
    kFrameHeaderBytes + sizeof(std::uint8_t) + 7 * sizeof(std::uint64_t);

/// Serializes `row` into `out` (replacing its contents) with the framed
/// header above. Reuses out's capacity across calls.
void encode_frame(const quant::QuantizedRow& row,
                  std::vector<std::uint8_t>& out);

/// Verifies magic/length/CRC and deserializes into `out`. Returns false
/// (leaving `out` unspecified) on any mismatch — a corrupt frame must
/// never throw or over-allocate; `max_dim` bounds every size field.
[[nodiscard]] bool decode_frame(std::span<const std::uint8_t> frame,
                                std::size_t max_dim, quant::QuantizedRow& out);

/// Header + CRC check only (no deserialization).
[[nodiscard]] bool verify_frame(std::span<const std::uint8_t> frame);

/// The same check over `frame` as received with bit `flipped_bit`
/// (frame-wide, 0-based; out of range = no flip) inverted in flight —
/// what verify_frame returns after flip_bit, computed in place.
[[nodiscard]] bool verify_frame(std::span<const std::uint8_t> frame,
                                std::uint64_t flipped_bit);

/// Flips bit `bit_index` (frame-wide, 0-based) in place.
void flip_bit(std::span<std::uint8_t> frame, std::uint64_t bit_index);

}  // namespace skiptrain::fault
