// 64-byte-aligned, huge-page-backed allocation arena.
//
// Fleet-scale planes are large flat float buffers whose hot loops are
// bandwidth-bound streaming kernels. std::vector gives neither the cache
// -line alignment the vectorized kernels want nor any control over page
// size or page placement. AlignedArena is the one allocation primitive
// underneath all of them:
//
//   - every allocation starts on a 64-byte boundary (cache line / widest
//     SIMD lane), so row 0 of a plane or pack buffer is always aligned;
//   - allocations of >= 2 MiB are mmap'd and advised MADV_HUGEPAGE, which
//     cuts TLB pressure on the [n x dim] gossip planes (an n=100k, dim=1k
//     plane is ~400 MB — ~100k 4 KiB TLB entries vs ~200 huge pages);
//   - contents are zero-initialized (fresh mmap pages arrive zeroed; the
//     small-allocation fallback memsets), matching the std::vector
//     semantics the planes were built on. Pages of a large allocation
//     fault in lazily, wherever they are first used.
//
// The arena is move-only and grow-only: ensure() reallocates (discarding
// contents) only when the requested size exceeds the current capacity —
// the thread-local GEMM pack scratch pattern.
#pragma once

#include <cstddef>

namespace skiptrain::util {

class AlignedArena {
 public:
  static constexpr std::size_t kAlignment = 64;
  /// mmap + MADV_HUGEPAGE threshold.
  static constexpr std::size_t kHugeThreshold = 2u * 1024u * 1024u;

  AlignedArena() = default;
  explicit AlignedArena(std::size_t bytes);
  ~AlignedArena();

  AlignedArena(AlignedArena&& other) noexcept;
  AlignedArena& operator=(AlignedArena&& other) noexcept;
  AlignedArena(const AlignedArena&) = delete;
  AlignedArena& operator=(const AlignedArena&) = delete;

  void* data() const { return ptr_; }
  float* floats() const { return static_cast<float*>(ptr_); }
  std::size_t size_bytes() const { return bytes_; }
  bool empty() const { return bytes_ == 0; }

  /// True when this allocation went through the mmap + MADV_HUGEPAGE path.
  bool huge_page_backed() const { return mapped_; }

  /// Grow-only capacity guarantee: reallocates (zeroed, contents
  /// DISCARDED) only when `bytes` exceeds the current size. The old block
  /// is released before the new one is mapped so peak footprint stays at
  /// one copy — scratch buffers, not containers.
  void ensure(std::size_t bytes);
  float* ensure_floats(std::size_t count) {
    ensure(count * sizeof(float));
    return floats();
  }

 private:
  void allocate(std::size_t bytes);
  void release() noexcept;

  void* ptr_ = nullptr;
  std::size_t bytes_ = 0;
  bool mapped_ = false;
};

}  // namespace skiptrain::util
