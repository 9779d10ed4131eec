// util::AlignedArena: alignment, zero-init, huge-page path, grow-only
// ensure() semantics, move-only ownership, and the RowArena backing that
// the parameter planes build on.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <utility>

#include "plane/plane.hpp"
#include "util/arena.hpp"

namespace skiptrain {
namespace {

using util::AlignedArena;

bool is_aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % AlignedArena::kAlignment == 0;
}

bool all_zero(const AlignedArena& arena) {
  const auto* bytes = static_cast<const unsigned char*>(arena.data());
  for (std::size_t i = 0; i < arena.size_bytes(); ++i) {
    if (bytes[i] != 0) return false;
  }
  return true;
}

TEST(AlignedArena, DefaultConstructedIsEmpty) {
  AlignedArena arena;
  EXPECT_TRUE(arena.empty());
  EXPECT_EQ(arena.size_bytes(), 0u);
  EXPECT_EQ(arena.data(), nullptr);
  EXPECT_FALSE(arena.huge_page_backed());
  // Zero-byte explicit construction is the same empty state.
  AlignedArena zero(0);
  EXPECT_TRUE(zero.empty());
  EXPECT_EQ(zero.data(), nullptr);
}

TEST(AlignedArena, SmallAllocationAlignedZeroedAndRounded) {
  AlignedArena arena(1000);
  EXPECT_FALSE(arena.empty());
  EXPECT_TRUE(is_aligned(arena.data()));
  // Capacity rounds up to the alignment quantum.
  EXPECT_EQ(arena.size_bytes(), 1024u);
  EXPECT_TRUE(all_zero(arena));
  // Small allocations never take the mmap path.
  EXPECT_FALSE(arena.huge_page_backed());
}

TEST(AlignedArena, LargeAllocationTakesHugePagePath) {
  // >= 2 MiB crosses kHugeThreshold; on Linux this is the mmap +
  // MADV_HUGEPAGE path and pages must still arrive zeroed and aligned.
  AlignedArena arena(AlignedArena::kHugeThreshold + 4096);
  EXPECT_TRUE(is_aligned(arena.data()));
  EXPECT_TRUE(all_zero(arena));
#ifdef __linux__
  EXPECT_TRUE(arena.huge_page_backed());
#endif
}

TEST(AlignedArena, EnsureIsGrowOnly) {
  AlignedArena arena(256);
  float* const before = arena.floats();
  for (std::size_t i = 0; i < 64; ++i) before[i] = static_cast<float>(i);

  // At-or-below capacity: no reallocation, contents untouched.
  arena.ensure(64);
  EXPECT_EQ(arena.floats(), before);
  arena.ensure(256);
  EXPECT_EQ(arena.floats(), before);
  EXPECT_EQ(before[63], 63.0f);

  // Growing reallocates: contents are DISCARDED (fresh zeroed block) and
  // the new capacity covers the request.
  arena.ensure(4096);
  EXPECT_GE(arena.size_bytes(), 4096u);
  EXPECT_TRUE(is_aligned(arena.data()));
  EXPECT_TRUE(all_zero(arena));
}

TEST(AlignedArena, EnsureFloatsSizesInFloatUnits) {
  AlignedArena arena;
  float* p = arena.ensure_floats(100);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p, arena.floats());
  EXPECT_GE(arena.size_bytes(), 100 * sizeof(float));
  p[99] = 7.5f;
  // A smaller request keeps the same block.
  EXPECT_EQ(arena.ensure_floats(10), p);
  EXPECT_EQ(arena.floats()[99], 7.5f);
}

TEST(AlignedArena, MoveTransfersOwnership) {
  AlignedArena source(512);
  source.floats()[0] = 42.0f;
  void* const block = source.data();

  AlignedArena moved(std::move(source));
  EXPECT_EQ(moved.data(), block);
  EXPECT_EQ(moved.floats()[0], 42.0f);
  EXPECT_TRUE(source.empty());      // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(source.data(), nullptr);

  AlignedArena target(64);
  target = std::move(moved);
  EXPECT_EQ(target.data(), block);
  EXPECT_EQ(target.floats()[0], 42.0f);
  EXPECT_TRUE(moved.empty());       // NOLINT(bugprone-use-after-move)
}

TEST(RowArena, ArenaBackedRowsAreAlignedAndZeroed) {
  // RowArena now sits on AlignedArena: row 0 starts on a 64-byte
  // boundary and fresh planes read as zero (the std::vector semantics the
  // planes were built on).
  plane::RowArena rows(5, 33);
  EXPECT_EQ(rows.rows(), 5u);
  EXPECT_EQ(rows.dim(), 33u);
  EXPECT_TRUE(is_aligned(rows.row(0).data()));
  for (std::size_t i = 0; i < rows.rows(); ++i) {
    for (const float v : rows.row(i)) EXPECT_EQ(v, 0.0f);
  }
  // Rows are contiguous at dim-stride and writes land where expected.
  EXPECT_EQ(rows.row(3).data(), rows.row(0).data() + 3 * 33);
  rows.row(2)[5] = 9.0f;
  EXPECT_EQ(rows.row(0).data()[2 * 33 + 5], 9.0f);
}

}  // namespace
}  // namespace skiptrain
