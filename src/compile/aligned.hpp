// Cache-line-aligned storage for the compiled backend's hot arrays.
//
// The executor streams over the slot file and the op tape with
// lane-contiguous vector loads; starting every array on a 64-byte boundary
// keeps those loads from straddling lines and makes the SoA stride maths
// (`slot * lanes + lane`) line up with the hardware the way the layout
// comments claim it does.  C++17 aligned operator new does the work — no
// platform allocator calls, no over-allocate-and-offset tricks.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace sysdp::compile {

/// One cache line, the alignment unit for slot files and op tapes.
inline constexpr std::size_t kCacheLine = 64;

/// Minimal allocator that hands out kCacheLine-aligned blocks.  Equality
/// is universal (the allocator is stateless), so containers can swap and
/// move storage freely.
template <typename T>
struct CacheAlignedAllocator {
  using value_type = T;

  CacheAlignedAllocator() noexcept = default;
  template <typename U>
  explicit CacheAlignedAllocator(const CacheAlignedAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kCacheLine}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kCacheLine});
  }

  template <typename U>
  bool operator==(const CacheAlignedAllocator<U>&) const noexcept {
    return true;
  }
};

/// std::vector whose data() is always cache-line aligned.
template <typename T>
using AlignedVec = std::vector<T, CacheAlignedAllocator<T>>;

}  // namespace sysdp::compile
