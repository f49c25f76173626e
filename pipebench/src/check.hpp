// Output checks the benchmark applies to every sample, and the bit-for-bit
// comparison of the traced replay against the Session report.
#pragma once

#include "core/allocation.hpp"
#include "scenario/batch_runner.hpp"

#include <cstddef>
#include <string>
#include <vector>

namespace pipebench {

/// Empty when the check passed; otherwise one line per failed condition.
using CheckFailures = std::vector<std::string>;

/// Per-sample output check: the 1-thread and 4-thread reports are
/// byte-identical except for `workers`, and every run that searched
/// placements has searched_loss <= preset_loss.
[[nodiscard]] CheckFailures check_sample(
    const socbuf::scenario::BatchReport& serial,
    const socbuf::scenario::BatchReport& parallel);

/// What the traced replay reproduces of a report, per run.
struct ReplayRun {
    socbuf::core::Allocation constant_alloc;
    socbuf::core::Allocation resized_alloc;
    double post_total = 0.0;
};

/// Bit-for-bit comparison of a replay against the Session report:
/// allocations, post_total and the solve-cache hit/miss counts.
[[nodiscard]] CheckFailures check_replay(
    const socbuf::scenario::BatchReport& report,
    const std::vector<ReplayRun>& runs, std::size_t cache_hits,
    std::size_t cache_misses);

}  // namespace pipebench
