// The four workloads of the whole-system benchmark (README.md in this
// directory says why each was chosen). Each one builds its inputs from
// Options::seed, measures for Options::seconds, checks its outputs, and
// reports end-to-end metrics when untraced or per-layer metrics when
// traced.
#pragma once

#include <cstdint>

#include "common.hpp"

namespace kar::perfbench {

[[nodiscard]] Report run_fig4_tcp(const Options& options);
[[nodiscard]] Report run_campaign_rnp28(const Options& options);
[[nodiscard]] Report run_mesh_internet2(const Options& options);
[[nodiscard]] Report run_kard_rnp28(const Options& options);

/// One traced fig4_tcp unit (all four curves) over `duration_s` simulated
/// seconds; the self-test compares two of these bit for bit.
[[nodiscard]] SimLayers fig4_traced_unit(std::uint64_t seed, double duration_s);

}  // namespace kar::perfbench
