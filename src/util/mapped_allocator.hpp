#pragma once
// An allocator that takes pages straight from mmap and gives them back
// with munmap, for containers that grow to megabytes and are freed
// while the process runs.
//
// Why: glibc serves a block of 128 KB or more from its own mapping, and
// freeing such a block raises the size below which later requests come
// from the heap (its dynamic mmap threshold, up to 32 MB). After that,
// megabyte buffers land in a thread's arena and stay resident once
// freed, so a process's peak RSS comes to depend on what it allocated
// and freed before. Blocks from this allocator never pass through
// malloc, so they neither move that threshold nor stay resident.
//
// Each allocation takes whole pages, so it suits a few large buffers,
// not many small ones.

#include <cstddef>

namespace osmosis::util {

/// Pages straight from mmap / back to munmap; throws std::bad_alloc.
void* map_pages(std::size_t bytes);
void unmap_pages(void* p, std::size_t bytes) noexcept;

template <class T>
struct MappedAllocator {
  using value_type = T;
  MappedAllocator() = default;
  template <class U>
  MappedAllocator(const MappedAllocator<U>&) noexcept {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(map_pages(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    unmap_pages(p, n * sizeof(T));
  }
  template <class U>
  bool operator==(const MappedAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace osmosis::util
