#include "alloc_count.h"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

// One slot per thread (modulo kSlots), padded so that threads counting
// concurrently do not share a cache line. Constant-initialized, so the
// counters are usable by allocations made before main.
struct alignas(64) Slot {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> bytes{0};
};
constexpr unsigned kSlots = 64;
Slot g_slots[kSlots];
std::atomic<unsigned> g_next_slot{0};
thread_local int t_slot = -1;

void note(std::size_t bytes) {
  if (t_slot < 0)
    t_slot = static_cast<int>(
        g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots);
  Slot& slot = g_slots[t_slot];
  slot.count.fetch_add(1, std::memory_order_relaxed);
  slot.bytes.fetch_add(bytes, std::memory_order_relaxed);
}

void* allocate(std::size_t bytes) {
  note(bytes);
  const std::size_t n = bytes == 0 ? 1 : bytes;
  for (;;) {
    if (void* p = std::malloc(n)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void* allocate_aligned(std::size_t bytes, std::align_val_t align) {
  note(bytes);
  std::size_t alignment = static_cast<std::size_t>(align);
  if (alignment < sizeof(void*)) alignment = sizeof(void*);
  const std::size_t n = bytes == 0 ? 1 : bytes;
  for (;;) {
    void* p = nullptr;
    if (posix_memalign(&p, alignment, n) == 0) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

}  // namespace

AllocTotals alloc_totals() {
  AllocTotals totals;
  for (const Slot& slot : g_slots) {
    totals.count += slot.count.load(std::memory_order_relaxed);
    totals.bytes += slot.bytes.load(std::memory_order_relaxed);
  }
  return totals;
}

}  // namespace perfbench

void* operator new(std::size_t n) { return perfbench::allocate(n); }
void* operator new[](std::size_t n) { return perfbench::allocate(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t a) {
  return perfbench::allocate_aligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return perfbench::allocate_aligned(n, a);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate_aligned(n, a);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate_aligned(n, a);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
