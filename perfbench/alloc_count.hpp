// Allocation counting for the traced runs: the benchmark binary replaces
// the global operator new/delete with versions that count, per thread,
// while counting is switched on (the tests/test_zero_alloc.cpp pattern).
// Other threads (the kard flusher, pool workers) never perturb a count.
#pragma once

#include <cstdint>

namespace kar::perfbench {

/// Starts or stops counting allocations made by the calling thread.
void set_alloc_counting(bool on) noexcept;

/// Allocations counted on the calling thread so far.
[[nodiscard]] std::uint64_t alloc_count() noexcept;

}  // namespace kar::perfbench
