// Counting allocator: replacement global operator new/delete forwarding
// to malloc/free. Counting is switched on only in the traced run; the
// counts are exact and repeat from run to run because the workloads are
// deterministic and run on one thread.
#include <cstdlib>
#include <new>

#include "bench.hpp"

namespace perfbench {
namespace {

bool g_counting = false;
AllocCounts g_counts;

void* counted_alloc(std::size_t size) {
  if (g_counting) {
    ++g_counts.allocs;
    g_counts.bytes += size;
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_alloc_aligned(std::size_t size, std::align_val_t align) {
  if (g_counting) {
    ++g_counts.allocs;
    g_counts.bytes += size;
  }
  const std::size_t a = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(a, (size + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void set_alloc_counting(bool on) { g_counting = on; }
bool alloc_counting() { return g_counting; }
AllocCounts alloc_counts() { return g_counts; }

}  // namespace perfbench

void* operator new(std::size_t size) { return perfbench::counted_alloc(size); }
void* operator new[](std::size_t size) { return perfbench::counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return perfbench::counted_alloc_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return perfbench::counted_alloc_aligned(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
