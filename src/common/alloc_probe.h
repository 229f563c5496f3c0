// Process-wide heap-allocation counters, used by the zero-allocation tests
// and by the cost ledger (bench/ledger) to count allocations.
//
// Linking this translation unit replaces the global `operator new` /
// `operator delete` with thin malloc/free wrappers that bump relaxed atomic
// counters. The wrappers are only pulled into a binary when something in it
// references `alloc_count()`/`alloc_bytes()` (static-library semantics), so
// ordinary binaries keep the default allocator. Under ASan/TSan the wrapped
// malloc is still the sanitizer's interposed one, so the sanitizer lanes keep
// their checking while the counters keep counting.
#pragma once

#include <cstdint>

namespace ibsec {

/// Number of successful global `operator new` calls since process start.
std::uint64_t alloc_count();

/// Total bytes requested from global `operator new` since process start.
std::uint64_t alloc_bytes();

}  // namespace ibsec
