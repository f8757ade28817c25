// Replacement global allocator for the zero-allocation tests (counting_new.hpp).
// Kept in its own translation unit so no test sees both the malloc-backed
// operator new and a matching delete inline.
#include "counting_new.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

namespace aqm::test {
std::uint64_t heap_allocs() { return g_heap_allocs.load(std::memory_order_relaxed); }
}  // namespace aqm::test

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
// std::get_temporary_buffer (std::inplace_merge) allocates with the nothrow
// form; it must come from the same heap the replaced deletes free into.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
