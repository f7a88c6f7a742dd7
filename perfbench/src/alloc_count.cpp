#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace qoebench::alloc {
namespace {

// Global-window counters: one cache line per thread slot. Threads past
// kSlots share slots, which only merges counts that are summed anyway.
constexpr unsigned kSlots = 64;
struct alignas(64) Slot {
  std::atomic<std::uint64_t> n{0};
};
Slot g_slots[kSlots];
std::atomic<unsigned> g_next_slot{0};
std::atomic<bool> g_global{false};
std::uint64_t g_global_start = 0;  // touched only by the window owner

thread_local bool t_armed = false;
thread_local std::uint64_t t_count = 0;
thread_local int t_slot = -1;

std::uint64_t global_sum() {
  std::uint64_t total = 0;
  for (const Slot& s : g_slots) total += s.n.load(std::memory_order_acquire);
  return total;
}

inline void count_one() {
  if (t_armed) {
    ++t_count;
  } else if (g_global.load(std::memory_order_relaxed)) {
    if (t_slot < 0) {
      t_slot = static_cast<int>(
          g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots);
    }
    g_slots[t_slot].n.fetch_add(1, std::memory_order_relaxed);
  }
}

void* allocate(std::size_t n) {
  count_one();
  if (n == 0) n = 1;
  for (;;) {
    if (void* p = std::malloc(n)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void* allocate_aligned(std::size_t n, std::align_val_t align) {
  count_one();
  const std::size_t a = static_cast<std::size_t>(align);
  if (n == 0) n = 1;
  for (;;) {
    void* p = nullptr;
    if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a, n) == 0)
      return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

}  // namespace

void begin_thread_window() {
  t_count = 0;
  t_armed = true;
}

std::uint64_t end_thread_window() {
  t_armed = false;
  return t_count;
}

void begin_global_window() {
  g_global_start = global_sum();
  g_global.store(true, std::memory_order_release);
}

std::uint64_t end_global_window() {
  g_global.store(false, std::memory_order_release);
  return global_sum() - g_global_start;
}

}  // namespace qoebench::alloc

using qoebench::alloc::allocate;
using qoebench::alloc::allocate_aligned;

void* operator new(std::size_t n) { return allocate(n); }
void* operator new[](std::size_t n) { return allocate(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return allocate_aligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return allocate_aligned(n, a);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  try {
    return allocate_aligned(n, a);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  try {
    return allocate_aligned(n, a);
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
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
