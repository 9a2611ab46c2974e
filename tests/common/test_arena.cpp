// Arena helpers and the AlignedVector alignment guarantee.
//
// The SIMD backends (common/simd.hpp) assume warmed arena buffers start
// on a kArenaAlignment boundary; this suite pins that guarantee across
// element types, growth patterns, and moves, and checks the allocator-
// generic arena helpers on both plain and aligned vectors.
#include "common/arena.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

namespace densevlc {
namespace {

template <class T>
bool is_arena_aligned(const AlignedVector<T>& v) {
  return reinterpret_cast<std::uintptr_t>(v.data()) % kArenaAlignment == 0;
}

TEST(Arena, AlignedVectorStorageIsAligned) {
  AlignedVector<std::uint8_t> bytes(1);
  AlignedVector<float> floats(3);
  AlignedVector<double> doubles(5);
  EXPECT_TRUE(is_arena_aligned(bytes));
  EXPECT_TRUE(is_arena_aligned(floats));
  EXPECT_TRUE(is_arena_aligned(doubles));
}

TEST(Arena, AlignmentSurvivesGrowthAndShrink) {
  AlignedVector<double> v;
  // Odd growth steps so the allocator sees many distinct sizes; every
  // reallocation must land back on a kArenaAlignment boundary.
  for (std::size_t n = 1; n < 3000; n = n * 2 + 7) {
    arena_resize(v, n);
    ASSERT_TRUE(is_arena_aligned(v)) << "size " << n;
  }
  v.shrink_to_fit();
  EXPECT_TRUE(is_arena_aligned(v));
}

TEST(Arena, AlignmentSurvivesMoveAndCopy) {
  AlignedVector<std::uint8_t> a(100, 0x5A);
  AlignedVector<std::uint8_t> b = a;            // copy allocates fresh
  AlignedVector<std::uint8_t> c = std::move(a); // move adopts storage
  EXPECT_TRUE(is_arena_aligned(b));
  EXPECT_TRUE(is_arena_aligned(c));
  EXPECT_EQ(c[99], 0x5A);
}

TEST(Arena, ResizeKeepsCapacityAndValues) {
  AlignedVector<int> v;
  arena_resize(v, 64);
  for (int i = 0; i < 64; ++i) v[static_cast<std::size_t>(i)] = i;
  const auto cap = v.capacity();
  const int* data = v.data();
  arena_resize(v, 16);
  arena_resize(v, 64);
  EXPECT_EQ(v.capacity(), cap);   // steady state: no reallocation
  EXPECT_EQ(v.data(), data);
  EXPECT_EQ(v[15], 15);           // surviving prefix untouched in place
}

TEST(Arena, ClearAndWarmTrackCapacity) {
  std::vector<double> plain;      // helpers are allocator-generic
  EXPECT_EQ(plain.capacity(), 0u);
  arena_resize(plain, 32);
  arena_clear(plain);
  EXPECT_TRUE(plain.empty());
  EXPECT_GE(plain.capacity(), 32u);

  AlignedVector<float> aligned;
  arena_resize(aligned, 8);
  arena_clear(aligned);
  EXPECT_TRUE(aligned.empty());
  EXPECT_GE(aligned.capacity(), 8u);
}

}  // namespace
}  // namespace densevlc
