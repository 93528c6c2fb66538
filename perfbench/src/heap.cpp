// Live-heap accounting for the benchmark binary: replaces the global
// operator new/delete so every C++ allocation (colop's and the standard
// library's) is counted.  The peak is reset before each op and read after
// it, which gives the op's own peak heap growth: a per-op figure that
// repeats exactly for one program, where the process's peak resident set
// is set by whichever rare program needs the most and so differs from one
// program set to the next.  Over-aligned allocations take the library's
// separate path and are not counted.

#include "heap.h"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

void note_alloc(void* p) {
  const auto n = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t now = g_live.fetch_add(n, std::memory_order_relaxed) + n;
  std::int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (now > peak &&
         !g_peak.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }

namespace perfbench {

std::int64_t reset_heap_peak() {
  const std::int64_t live = g_live.load(std::memory_order_relaxed);
  g_peak.store(live, std::memory_order_relaxed);
  return live;
}

std::int64_t heap_peak() { return g_peak.load(std::memory_order_relaxed); }

}  // namespace perfbench
