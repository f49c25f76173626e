#include "core/allocation.hpp"

#include "util/contracts.hpp"
#include "util/numeric.hpp"

#include <algorithm>

namespace socbuf::core {

namespace {

/// Scatter per-active-site shares back into a full site-indexed vector,
/// giving every pinned site its single passthrough slot.
Allocation scatter(const split::SplitResult& split,
                   const std::vector<arch::SiteId>& active,
                   const std::vector<long>& shares) {
    Allocation alloc(split.sites.size(), 0);
    for (const auto& sub : split.subsystems)
        for (const auto& f : sub.flows)
            if (f.pinned) alloc[f.site] = 1;
    for (std::size_t i = 0; i < active.size(); ++i)
        alloc[active[i]] = shares[i];
    return alloc;
}

}  // namespace

std::vector<arch::SiteId> active_sites(const split::SplitResult& split) {
    std::vector<arch::SiteId> out;
    for (const auto& sub : split.subsystems)
        for (const auto& f : sub.flows)
            if (!f.pinned) out.push_back(f.site);
    std::sort(out.begin(), out.end());
    return out;
}

long pinned_site_budget(const split::SplitResult& split) {
    long pinned = 0;
    for (const auto& sub : split.subsystems)
        for (const auto& f : sub.flows)
            if (f.pinned) ++pinned;
    return pinned;
}

long allocation_total(const Allocation& alloc) {
    long total = 0;
    for (long a : alloc) total += a;
    return total;
}

Allocation uniform_allocation(const split::SplitResult& split,
                              long total_budget) {
    const auto active = active_sites(split);
    SOCBUF_REQUIRE_MSG(!active.empty(), "no traffic-carrying sites");
    const long budget = total_budget - pinned_site_budget(split);
    const std::vector<double> weights(active.size(), 1.0);
    return scatter(split, active,
                   util::apportion_largest_remainder(budget, weights,
                                                     /*floor=*/1));
}

Allocation proportional_allocation(const split::SplitResult& split,
                                   long total_budget) {
    const auto active = active_sites(split);
    SOCBUF_REQUIRE_MSG(!active.empty(), "no traffic-carrying sites");
    std::vector<double> rate_of_site(split.sites.size(), 0.0);
    for (const auto& sub : split.subsystems)
        for (const auto& f : sub.flows) rate_of_site[f.site] = f.arrival_rate;
    std::vector<double> weights;
    weights.reserve(active.size());
    for (const auto s : active) weights.push_back(rate_of_site[s]);
    return scatter(split, active,
                   util::apportion_largest_remainder(
                       total_budget - pinned_site_budget(split), weights,
                       /*floor=*/1));
}

}  // namespace socbuf::core
