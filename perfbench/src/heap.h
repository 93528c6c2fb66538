#pragma once
// Live C++ heap bytes of the benchmark process (see heap.cpp).

#include <cstdint>

namespace perfbench {

/// Set the peak mark to the current live bytes; returns them.
std::int64_t reset_heap_peak();

/// Highest live bytes since the last reset.
[[nodiscard]] std::int64_t heap_peak();

}  // namespace perfbench
