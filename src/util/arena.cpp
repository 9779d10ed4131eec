#include "util/arena.hpp"

#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>

#ifdef __linux__
#include <sys/mman.h>
#endif

namespace skiptrain::util {

namespace {

std::size_t round_up(std::size_t bytes, std::size_t multiple) {
  return (bytes + multiple - 1) / multiple * multiple;
}

}  // namespace

AlignedArena::AlignedArena(std::size_t bytes) { allocate(bytes); }

AlignedArena::~AlignedArena() { release(); }

AlignedArena::AlignedArena(AlignedArena&& other) noexcept
    : ptr_(std::exchange(other.ptr_, nullptr)),
      bytes_(std::exchange(other.bytes_, 0)),
      mapped_(std::exchange(other.mapped_, false)) {}

AlignedArena& AlignedArena::operator=(AlignedArena&& other) noexcept {
  if (this != &other) {
    release();
    ptr_ = std::exchange(other.ptr_, nullptr);
    bytes_ = std::exchange(other.bytes_, 0);
    mapped_ = std::exchange(other.mapped_, false);
  }
  return *this;
}

void AlignedArena::ensure(std::size_t bytes) {
  if (bytes <= bytes_) return;
  // Drop before realloc: scratch semantics, and peak RSS stays at one copy.
  release();
  allocate(bytes);
}

void AlignedArena::allocate(std::size_t bytes) {
  if (bytes == 0) return;
  const std::size_t rounded = round_up(bytes, kAlignment);
#ifdef __linux__
  if (rounded >= kHugeThreshold) {
    void* p = ::mmap(nullptr, rounded, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p != MAP_FAILED) {
      // Advisory only: kernels without THP simply ignore it.
      ::madvise(p, rounded, MADV_HUGEPAGE);
      ptr_ = p;
      bytes_ = rounded;
      mapped_ = true;  // anonymous mappings arrive zeroed
      return;
    }
    // mmap failure falls through to the aligned_alloc path.
  }
#endif
  void* p = std::aligned_alloc(kAlignment, rounded);
  if (p == nullptr) throw std::bad_alloc();
  std::memset(p, 0, rounded);
  ptr_ = p;
  bytes_ = rounded;
  mapped_ = false;
}

void AlignedArena::release() noexcept {
  if (ptr_ == nullptr) return;
#ifdef __linux__
  if (mapped_) {
    ::munmap(ptr_, bytes_);
    ptr_ = nullptr;
    bytes_ = 0;
    mapped_ = false;
    return;
  }
#endif
  std::free(ptr_);
  ptr_ = nullptr;
  bytes_ = 0;
}

}  // namespace skiptrain::util
