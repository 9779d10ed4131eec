// Quantized model-exchange codecs (ROADMAP: "int8/FP16 row storage with
// per-row scales for the exchange path, converting at the staging
// boundary"; SAQ-style scalar quantization is the related-work axis).
//
// A codec turns one ParameterPlane row (a node's flat float32 parameter
// vector) into the compact representation that crosses the simulated wire,
// and back. Everything stays float32 inside the plane and the blocked
// aggregation kernels — encode/decode happen only at the staging boundary,
// so the wire-volume model and the plane layout stay in sync:
//
//   sender row ──encode──▶ QuantizedRow (wire) ──decode──▶ staging row
//                                │
//                                └── wire_bytes() drives the energy bill
//
// Codecs:
//   identity  4     B/param  float32 passthrough (the paper's setting);
//                            engines skip the staging copy entirely.
//   fp16      2     B/param  IEEE binary16, round-to-nearest-even.
//   int8      1.125 B/param  per-block (64 values) affine uint8:
//                            q = round((x−lo)/scale), x̂ = lo + scale·q,
//                            block header = lo + scale as float32 (8 B).
//   int8d     1.125 B/param  int8 with subtractive dithering: a uniform
//                            offset u_c derived from (seed, round, slot)
//                            is added before the floor at encode and
//                            subtracted at decode. The dither stream is a
//                            round-shared deterministic RNG — every
//                            receiver regenerates the same u_c, so all
//                            decodes are bit-identical — and it makes the
//                            quantization error unbiased and
//                            signal-independent (|err| ≤ scale/2).
//
// Determinism: encode and decode are pure functions of (row bytes, codec
// seed, round), never of thread interleaving; the dither hash is stateless
// per coordinate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "energy/device.hpp"

namespace skiptrain::quant {

/// Wire format of one exchanged model row.
enum class Codec {
  kIdentity,      // float32 passthrough
  kFp16,          // IEEE binary16 values
  kInt8,          // per-block affine uint8, nearest rounding
  kInt8Dithered,  // per-block affine uint8, shared subtractive dither
};

/// Display name ("fp32", "fp16", "int8", "int8d").
[[nodiscard]] const char* codec_name(Codec codec);

/// Config-file token ("identity", "fp16", "int8", "int8-dither").
[[nodiscard]] const char* codec_token(Codec codec);

/// Parses a config token (also accepts the display aliases "fp32" and
/// "int8d"). Throws std::invalid_argument on anything else.
[[nodiscard]] Codec parse_codec(const std::string& name);

/// All codecs, identity first — the axis order of codec sweeps.
[[nodiscard]] const std::vector<Codec>& all_codecs();

/// Values per int8 block; each block ships a (lo, scale) float32 header.
inline constexpr std::size_t kInt8BlockValues = 64;
inline constexpr std::size_t kInt8BlockHeaderBytes = 2 * sizeof(float);

/// Analytic wire cost per parameter: 4 (identity), 2 (fp16),
/// 1 + 8/64 = 1.125 (int8 variants, block header amortized). Partial
/// trailing blocks are ignored here — the energy model bills at the
/// paper's model size, not the simulated dim, so the amortized figure is
/// the right constant (QuantizedRow::wire_bytes is exact per row).
[[nodiscard]] double wire_bytes_per_param(Codec codec);

/// energy::CommModel with bytes_per_param derived from the active codec —
/// the one place that replaces the old hardcoded 4 bytes/param.
[[nodiscard]] energy::CommModel comm_model_for(Codec codec,
                                               energy::CommModel base = {});

/// Exact bytes one encoded `dim`-value row occupies on the wire, including
/// partial-block int8 headers — what QuantizedRow::wire_bytes() reports
/// after an encode, computable without encoding. The engine's telemetry
/// wire-byte tallies use this (the analytic per-param figure above
/// amortizes away partial trailing blocks).
[[nodiscard]] std::size_t exact_row_wire_bytes(Codec codec, std::size_t dim);

// --- fp16 scalar conversions (exposed for tests/benches) -------------------

/// float32 -> binary16 with round-to-nearest-even (overflow -> ±Inf,
/// underflow -> ±0, NaN preserved as a quiet NaN).
[[nodiscard]] std::uint16_t fp16_from_float(float value);

/// binary16 -> float32, exact.
[[nodiscard]] float fp16_to_float(std::uint16_t half);

// --- wire buffer -----------------------------------------------------------

/// One encoded row. Storage is typed per codec family (only the active
/// family's vectors are populated); wire_bytes() reports the exact
/// serialized size, including int8 block headers.
struct QuantizedRow {
  Codec codec = Codec::kIdentity;
  std::size_t dim = 0;
  std::size_t round = 0;  // dither stream id (kInt8Dithered only)

  std::vector<float> fp32;            // kIdentity
  std::vector<std::uint16_t> half;    // kFp16
  std::vector<std::uint8_t> codes;    // int8 variants
  std::vector<float> block_lo;        // int8 variants, per block
  std::vector<float> block_scale;     // int8 variants, per block

  [[nodiscard]] std::size_t num_blocks() const {
    return (dim + kInt8BlockValues - 1) / kInt8BlockValues;
  }

  /// Exact bytes this row occupies on the wire.
  [[nodiscard]] std::size_t wire_bytes() const;
};

// --- codec interface -------------------------------------------------------

/// Stateless-per-row encoder/decoder. One instance may be shared by every
/// node of an engine: encode/decode are const and thread-safe; only
/// begin_round mutates (call it once per round, before the parallel
/// encode fan-out).
class RowCodec {
 public:
  virtual ~RowCodec() = default;

  [[nodiscard]] virtual Codec kind() const = 0;

  [[nodiscard]] double bytes_per_param() const {
    return wire_bytes_per_param(kind());
  }

  /// Sets the shared dither stream for the round about to be exchanged.
  /// No-op for undithered codecs. Decode does NOT depend on this state —
  /// it reads the round id stored on the QuantizedRow, so a receiver
  /// decodes any payload its seed can regenerate the dither for.
  virtual void begin_round(std::size_t round);

  /// Encodes `row` into `out`, reusing out's buffers when possible.
  virtual void encode(std::span<const float> row, QuantizedRow& out) const = 0;

  /// Decodes `in` (dim must match out.size()) into float32.
  virtual void decode(const QuantizedRow& in, std::span<float> out) const = 0;
};

/// Factory. `seed` feeds the dither stream of kInt8Dithered (all nodes of
/// a fleet must share it — pass the experiment seed); other codecs ignore
/// it.
[[nodiscard]] std::unique_ptr<RowCodec> make_codec(Codec kind,
                                                   std::uint64_t seed = 0);

}  // namespace skiptrain::quant
