// Heap-allocation counter for the allocation-free tests. Linking
// alloc_counter.cpp into a test binary replaces every form of operator new
// (and, to stay paired, every operator delete); each call counts, on any
// thread, between begin_counting_allocations() and
// end_counting_allocations().
#pragma once

#include <cstddef>

namespace mlad::test_support {

/// Zero the count and start counting.
void begin_counting_allocations();
/// Stop counting; returns the allocations made since the last begin.
std::size_t end_counting_allocations();

}  // namespace mlad::test_support
