// Replaceable global allocation functions that count calls per thread.
//
// Each thread owns one cache-line-sized slot and bumps it with a plain
// relaxed load/store (single writer, no lock prefix), so counting costs the
// timed path almost nothing and threads never contend. Threads past the
// slot table share the last slot through fetch_add. Only `new` is counted;
// delete forwards straight to free.

#include "alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

constexpr int kSlots = 1024;

struct alignas(64) Slot {
  std::atomic<uint64_t> count{0};
};

Slot g_slots[kSlots];
std::atomic<int> g_next_slot{0};
thread_local int t_slot = -1;

int MySlot() {
  if (t_slot < 0) {
    const int claimed = g_next_slot.fetch_add(1, std::memory_order_relaxed);
    t_slot = claimed < kSlots - 1 ? claimed : kSlots - 1;
  }
  return t_slot;
}

void CountAllocation() {
  const int slot = MySlot();
  std::atomic<uint64_t>& count = g_slots[slot].count;
  if (slot == kSlots - 1) {
    count.fetch_add(1, std::memory_order_relaxed);
  } else {
    count.store(count.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
  }
}

void* CountedAlloc(std::size_t size) {
  CountAllocation();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

namespace e2e {

uint64_t ThreadAllocs() {
  return g_slots[MySlot()].count.load(std::memory_order_relaxed);
}

uint64_t ProcessAllocs() {
  uint64_t total = 0;
  for (const Slot& slot : g_slots) {
    total += slot.count.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace e2e

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
