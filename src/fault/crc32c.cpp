#include "fault/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <nmmintrin.h>
#define SKIPTRAIN_CRC32C_HW 1
#else
#define SKIPTRAIN_CRC32C_HW 0
#endif

namespace skiptrain::fault {
namespace {

// Reflected CRC32C polynomial.
constexpr std::uint32_t kPoly = 0x82f63b78U;

struct Tables {
  // tables[k][b]: CRC contribution of byte b seen k positions before the
  // end of a 4-byte group (slicing-by-4).
  std::array<std::array<std::uint32_t, 256>, 4> t{};
};

constexpr Tables make_tables() {
  Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1U) != 0 ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    tables.t[0][i] = crc;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = tables.t[0][i];
    for (std::size_t k = 1; k < 4; ++k) {
      crc = tables.t[0][crc & 0xffU] ^ (crc >> 8);
      tables.t[k][i] = crc;
    }
  }
  return tables;
}

constexpr Tables kTables = make_tables();

#if SKIPTRAIN_CRC32C_HW
/// The SSE4.2 `crc32` instruction computes this same reflected CRC32C,
/// one 8-byte little-endian word per step. A function-level target keeps
/// the rest of the build at the baseline ISA, and a plain branch (not an
/// IFUNC) dispatches to it, so sanitizer builds run it too.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_update_sse42(
    std::uint32_t crc, const unsigned char* p, std::size_t bytes) {
  std::uint64_t crc64 = crc;
  for (; bytes >= 8; p += 8, bytes -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    crc64 = _mm_crc32_u64(crc64, word);
  }
  crc = static_cast<std::uint32_t>(crc64);
  for (; bytes != 0; ++p, --bytes) crc = _mm_crc32_u8(crc, *p);
  return crc;
}

/// Probed on first use, not at namespace scope: a static initializer can
/// run before libgcc's own CPU probe and would read no features at all.
bool have_sse42() {
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return supported;
}
#endif

}  // namespace

std::uint32_t crc32c_update(std::uint32_t crc, const void* data,
                            std::size_t bytes) {
#if SKIPTRAIN_CRC32C_HW
  if (have_sse42()) {
    return crc32c_update_sse42(crc, static_cast<const unsigned char*>(data),
                               bytes);
  }
#endif
  return crc32c_update_portable(crc, data, bytes);
}

const char* crc32c_isa() {
#if SKIPTRAIN_CRC32C_HW
  if (have_sse42()) return "sse4.2";
#endif
  return "portable";
}

std::uint32_t crc32c_update_portable(std::uint32_t crc, const void* data,
                                     std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  // Head: bytes until 4-byte alignment of the remaining length.
  while (bytes != 0 && (bytes & 3U) != 0) {
    crc = kTables.t[0][(crc ^ *p++) & 0xffU] ^ (crc >> 8);
    --bytes;
  }
  while (bytes >= 4) {
    // Byte-wise loads keep the result endian-independent.
    const std::uint32_t w = crc ^ (static_cast<std::uint32_t>(p[0]) |
                                   static_cast<std::uint32_t>(p[1]) << 8 |
                                   static_cast<std::uint32_t>(p[2]) << 16 |
                                   static_cast<std::uint32_t>(p[3]) << 24);
    crc = kTables.t[3][w & 0xffU] ^ kTables.t[2][(w >> 8) & 0xffU] ^
          kTables.t[1][(w >> 16) & 0xffU] ^ kTables.t[0][(w >> 24) & 0xffU];
    p += 4;
    bytes -= 4;
  }
  return crc;
}

}  // namespace skiptrain::fault
