#include "src/util/mapped_allocator.hpp"

#include <sys/mman.h>

#include <new>

namespace osmosis::util {

void* map_pages(std::size_t bytes) {
  if (bytes == 0) return nullptr;
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void unmap_pages(void* p, std::size_t bytes) noexcept {
  if (p != nullptr) munmap(p, bytes);
}

}  // namespace osmosis::util
