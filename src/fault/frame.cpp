#include "fault/frame.hpp"

#include <algorithm>
#include <cstring>

#include "fault/crc32c.hpp"

namespace skiptrain::fault {
namespace {

template <typename T>
void append_pod(std::vector<std::uint8_t>& out, const T& value) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(&value);
  out.insert(out.end(), bytes, bytes + sizeof(T));
}

template <typename T>
void append_vec(std::vector<std::uint8_t>& out, const std::vector<T>& values) {
  append_pod(out, static_cast<std::uint64_t>(values.size()));
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(values.data());
  out.insert(out.end(), bytes, bytes + values.size() * sizeof(T));
}

/// Bounds-checked sequential reader over the payload span.
class PayloadReader {
 public:
  explicit PayloadReader(std::span<const std::uint8_t> payload)
      : payload_(payload) {}

  template <typename T>
  bool pod(T& out) {
    if (payload_.size() - pos_ < sizeof(T)) return false;
    std::memcpy(&out, payload_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  template <typename T>
  bool vec(std::vector<T>& out, std::size_t max_elems) {
    std::uint64_t count = 0;
    if (!pod(count)) return false;
    if (count > max_elems) return false;
    const std::size_t bytes = static_cast<std::size_t>(count) * sizeof(T);
    if (payload_.size() - pos_ < bytes) return false;
    out.resize(static_cast<std::size_t>(count));
    // An empty vector's data() may be null, and memcpy with a null
    // pointer is undefined even for zero bytes.
    if (bytes != 0) std::memcpy(out.data(), payload_.data() + pos_, bytes);
    pos_ += bytes;
    return true;
  }

  [[nodiscard]] bool exhausted() const { return pos_ == payload_.size(); }

 private:
  std::span<const std::uint8_t> payload_;
  std::size_t pos_ = 0;
};

}  // namespace

void encode_frame(const quant::QuantizedRow& row,
                  std::vector<std::uint8_t>& out) {
  out.clear();
  // Header placeholder; patched below once the payload size is known.
  out.resize(kFrameHeaderBytes);
  append_pod(out, static_cast<std::uint8_t>(row.codec));
  append_pod(out, static_cast<std::uint64_t>(row.round));
  append_pod(out, static_cast<std::uint64_t>(row.dim));
  append_vec(out, row.fp32);
  append_vec(out, row.half);
  append_vec(out, row.codes);
  append_vec(out, row.block_lo);
  append_vec(out, row.block_scale);

  const std::size_t payload_bytes = out.size() - kFrameHeaderBytes;
  const std::uint32_t crc =
      crc32c(out.data() + kFrameHeaderBytes, payload_bytes);
  std::uint32_t header[3] = {kFrameMagic,
                             static_cast<std::uint32_t>(payload_bytes), crc};
  std::memcpy(out.data(), header, sizeof(header));
}

bool verify_frame(std::span<const std::uint8_t> frame) {
  return verify_frame(frame, frame.size() * 8);
}

bool verify_frame(std::span<const std::uint8_t> frame,
                  std::uint64_t flipped_bit) {
  if (frame.size() < kFrameHeaderBytes) return false;
  // Byte `at` arrives XORed with `mask`; at == size means no flip.
  const std::size_t at = std::min<std::uint64_t>(flipped_bit / 8, frame.size());
  const auto mask = static_cast<std::uint8_t>(1U << (flipped_bit % 8));
  const auto received = [&](std::size_t i) {
    return static_cast<std::uint8_t>(i == at ? frame[i] ^ mask : frame[i]);
  };
  std::uint8_t head[kFrameHeaderBytes];
  for (std::size_t i = 0; i < kFrameHeaderBytes; ++i) head[i] = received(i);
  std::uint32_t header[3];
  std::memcpy(header, head, sizeof(header));
  if (header[0] != kFrameMagic) return false;
  if (frame.size() - kFrameHeaderBytes != header[1]) return false;
  // Payload CRC in three runs: up to the cut, the received byte there,
  // and the rest.
  const std::size_t cut = std::max(at, kFrameHeaderBytes);
  std::uint32_t crc = crc32c_update(
      kCrc32cInit, frame.data() + kFrameHeaderBytes, cut - kFrameHeaderBytes);
  if (cut < frame.size()) {
    const std::uint8_t byte = received(cut);
    crc = crc32c_update(crc, &byte, 1);
    crc = crc32c_update(crc, frame.data() + cut + 1, frame.size() - cut - 1);
  }
  return crc32c_finish(crc) == header[2];
}

bool decode_frame(std::span<const std::uint8_t> frame, std::size_t max_dim,
                  quant::QuantizedRow& out) {
  if (!verify_frame(frame)) return false;
  PayloadReader reader(frame.subspan(kFrameHeaderBytes));
  std::uint8_t codec = 0;
  std::uint64_t round = 0;
  std::uint64_t dim = 0;
  if (!reader.pod(codec) || !reader.pod(round) || !reader.pod(dim)) {
    return false;
  }
  if (codec > static_cast<std::uint8_t>(quant::Codec::kInt8Dithered)) {
    return false;
  }
  if (dim > max_dim) return false;
  out.codec = static_cast<quant::Codec>(codec);
  out.round = static_cast<std::size_t>(round);
  out.dim = static_cast<std::size_t>(dim);
  const std::size_t max_blocks =
      (static_cast<std::size_t>(dim) + quant::kInt8BlockValues - 1) /
      quant::kInt8BlockValues;
  if (!reader.vec(out.fp32, dim) || !reader.vec(out.half, dim) ||
      !reader.vec(out.codes, dim) || !reader.vec(out.block_lo, max_blocks) ||
      !reader.vec(out.block_scale, max_blocks)) {
    return false;
  }
  return reader.exhausted();
}

void flip_bit(std::span<std::uint8_t> frame, std::uint64_t bit_index) {
  if (frame.empty()) return;
  const std::uint64_t byte = bit_index / 8;
  if (byte >= frame.size()) return;
  frame[byte] ^= static_cast<std::uint8_t>(1U << (bit_index % 8));
}

}  // namespace skiptrain::fault
