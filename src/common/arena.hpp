// Reusable buffer arena for the zero-allocation sample path.
//
// The PHY hot loops (files marked `// DVLC_HOT`) must not touch the heap
// in steady state: every frame reuses buffers whose capacity was
// established during the first (warm-up) frame. The idiom throughout the
// fast paths is a caller-owned scratch struct of named vectors, each
// managed through the helpers below — `arena_resize` grows capacity only
// until the high-water mark is reached, after which a resize is a plain
// size bookkeeping update and the hot loop performs zero allocations.
//
// SDR stacks keep their sample paths allocation-free the same way
// (pre-sized sample buffers reused across slots); this header is the
// repo-wide home of that contract so the `hot-loop-alloc` lint rule can
// point offenders at one explanation.
//
// SIMD alignment: scratch buffers consumed by the vector kernels
// (common/simd.hpp backends) use `AlignedVector<T>`, whose allocator
// hands out 32-byte-aligned storage — wide enough for AVX2's 256-bit
// loads and a multiple of NEON's 16-byte lanes — so warmed arena buffers
// never force the unaligned-load penalty path. The arena helpers are
// allocator-generic and work on both plain and aligned vectors.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace densevlc {

/// Alignment guarantee (bytes) for `AlignedVector` storage: one full
/// AVX2 vector, and a multiple of every narrower backend's lane width.
inline constexpr std::size_t kArenaAlignment = 32;

/// Minimal aligned allocator for arena scratch buffers. Every allocation
/// is aligned to `kArenaAlignment` bytes via the C++17 aligned operator
/// new, so vector kernels can assume aligned bases for warmed buffers.
template <class T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    return static_cast<T*>(
        ::operator new(bytes, std::align_val_t{kArenaAlignment}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kArenaAlignment});
  }

  template <class U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
  template <class U>
  bool operator!=(const AlignedAllocator<U>&) const noexcept {
    return false;
  }
};

/// A std::vector whose storage is always `kArenaAlignment`-aligned.
template <class T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

/// Resizes `buf` to exactly `n` elements while keeping its capacity.
/// Steady state (capacity >= n): no allocation; newly exposed elements
/// are value-initialized and must be overwritten by the caller.
/// Warm-up (capacity < n): one geometric growth, amortized away.
template <class T, class A>
inline std::vector<T, A>& arena_resize(std::vector<T, A>& buf,
                                       std::size_t n) {
  buf.resize(n);
  return buf;
}

/// Grows `buf` to at least `n` elements and never shrinks it: unlike
/// arena_resize, elements that own storage (byte buffers, waveforms) keep
/// it through calls that use fewer of them. Callers use the first n.
template <class T, class A>
inline std::vector<T, A>& arena_grow(std::vector<T, A>& buf, std::size_t n) {
  if (buf.size() < n) buf.resize(n);
  return buf;
}

/// Empties `buf` without releasing storage, for append-style refills that
/// stay within the warmed-up capacity.
template <class T, class A>
inline std::vector<T, A>& arena_clear(std::vector<T, A>& buf) {
  buf.clear();
  return buf;
}

}  // namespace densevlc
