// Buffer allocations and the baseline sizing policies the paper compares
// against: constant (uniform) sizing and traffic-ratio (proportional)
// sizing. All allocations are per buffer
// site (arch::enumerate_buffer_sites order) and exactly exhaust the budget
// over the traffic-carrying sites.
#pragma once

#include "split/splitter.hpp"

#include <vector>

namespace socbuf::core {

using Allocation = std::vector<long>;

/// Sum of all entries.
[[nodiscard]] long allocation_total(const Allocation& alloc);

/// Apportionable (non-pinned) traffic-carrying sites, in ascending site
/// order. Pinned sites — bridge sites the placement deselected — are
/// excluded: they keep a fixed single-slot passthrough instead of a
/// budget share.
[[nodiscard]] std::vector<arch::SiteId> active_sites(
    const split::SplitResult& split);

/// Budget consumed by the pinned sites' passthrough slots (one each).
/// Every allocation policy hands out `total_budget - pinned_site_budget`
/// over the active sites, so the *total* budget is identical for every
/// placement — the equal-budget contract of the insertion search.
[[nodiscard]] long pinned_site_budget(const split::SplitResult& split);

/// The paper's "constant buffer sizing" baseline: the budget is spread
/// evenly over all traffic-carrying sites (inactive sites get nothing).
[[nodiscard]] Allocation uniform_allocation(const split::SplitResult& split,
                                            long total_budget);

/// The "division of the space depending on traffic ratios" strawman from
/// the paper's introduction: shares proportional to each site's offered
/// rate.
[[nodiscard]] Allocation proportional_allocation(
    const split::SplitResult& split, long total_budget);

}  // namespace socbuf::core
