#include "alloc_count.hpp"

#include <cstdlib>
#include <new>

namespace {

thread_local bool g_counting = false;
thread_local std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t size) noexcept {
  if (g_counting) ++g_allocations;
  return std::malloc(size ? size : 1);
}

void* counted_alloc_or_throw(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

namespace kar::perfbench {

void set_alloc_counting(bool on) noexcept { g_counting = on; }

std::uint64_t alloc_count() noexcept { return g_allocations; }

}  // namespace kar::perfbench

void* operator new(std::size_t size) { return counted_alloc_or_throw(size); }
void* operator new[](std::size_t size) { return counted_alloc_or_throw(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
