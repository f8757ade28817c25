// Counting global allocator shared by the zero-allocation tests.
//
// counting_new.cpp replaces the global operator new/delete family with
// malloc/free wrappers that count every operator new call (throwing and
// nothrow, scalar and array). A test links it, reads heap_allocs() around
// the steady-state loop it checks, and asserts the difference.
#pragma once

#include <cstdint>

namespace aqm::test {

/// Number of global operator new calls made by the process so far.
[[nodiscard]] std::uint64_t heap_allocs();

}  // namespace aqm::test
