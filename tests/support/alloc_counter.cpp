#include "alloc_counter.hpp"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

// Every form of operator new goes through counted_alloc. All of them (and
// every delete) are replaced together, so no allocation is paired with
// another allocator's free.
namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t n, std::size_t align) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) ++g_allocations;
  if (n == 0) n = 1;
  return align <= alignof(std::max_align_t)
             ? std::malloc(n)
             : std::aligned_alloc(align, (n + align - 1) / align * align);
}

void* counted_alloc_or_throw(std::size_t n, std::size_t align) {
  if (void* p = counted_alloc(n, align)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc_or_throw(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc_or_throw(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, 0);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
// Out of line, so gcc does not pair an inlined free() with a `new` call
// site and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t,
                                         std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace mlad::test_support {

void begin_counting_allocations() {
  g_allocations = 0;
  g_counting = true;
}

std::size_t end_counting_allocations() {
  g_counting = false;
  return g_allocations.load();
}

}  // namespace mlad::test_support
