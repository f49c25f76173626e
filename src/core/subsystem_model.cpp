#include "core/subsystem_model.hpp"

#include "util/contracts.hpp"

#include <algorithm>
#include <utility>

namespace socbuf::core {

SubsystemCtmdp::SubsystemCtmdp(const split::Subsystem& subsystem,
                               std::vector<long> caps,
                               std::vector<double> rates)
    : subsystem_(&subsystem), caps_(std::move(caps)), rates_(std::move(rates)) {
    SOCBUF_REQUIRE_MSG(caps_.size() == subsystem.flows.size(),
                       "caps must match flow count");
    SOCBUF_REQUIRE_MSG(rates_.size() == subsystem.flows.size(),
                       "rates must match flow count");
    for (long c : caps_) SOCBUF_REQUIRE_MSG(c >= 1, "caps must be >= 1");
    for (double r : rates_)
        SOCBUF_REQUIRE_MSG(r >= 0.0, "rates must be non-negative");
    strides_.resize(caps_.size());
    std::size_t stride = 1;
    for (std::size_t f = 0; f < caps_.size(); ++f) {
        strides_[f] = stride;
        stride *= static_cast<std::size_t>(caps_[f]) + 1;
    }
    build();
}

std::size_t SubsystemCtmdp::state_count() const {
    std::size_t n = 1;
    for (long c : caps_) n *= static_cast<std::size_t>(c) + 1;
    return n;
}

long SubsystemCtmdp::occupancy(std::size_t state, std::size_t f) const {
    SOCBUF_REQUIRE(f < caps_.size());
    return static_cast<long>((state / strides_[f]) %
                             (static_cast<std::size_t>(caps_[f]) + 1));
}

double SubsystemCtmdp::loss_rate(std::size_t state) const {
    double cost = 0.0;
    for (std::size_t f = 0; f < caps_.size(); ++f)
        if (occupancy(state, f) == caps_[f])
            cost += subsystem_->flows[f].weight * rates_[f];
    return cost;
}

void SubsystemCtmdp::build() {
    const std::size_t n = state_count();
    const double mu = subsystem_->service_rate;
    // Count the model first (one action per busy flow, or idle; each
    // action carries the state's arrivals plus its service), so every
    // array is allocated once, at its exact size.
    std::size_t pairs = 0;
    std::size_t transitions = 0;
    for (std::size_t s = 0; s < n; ++s) {
        std::size_t arriving = 0;
        std::size_t busy = 0;
        for (std::size_t f = 0; f < caps_.size(); ++f) {
            const long k = occupancy(s, f);
            if (k < caps_[f] && rates_[f] > 0.0) ++arriving;
            if (k != 0) ++busy;
        }
        pairs += std::max<std::size_t>(busy, 1);
        transitions += busy == 0 ? arriving : busy * (arriving + 1);
    }
    ctmdp::CtmdpBuilder builder(n);
    builder.reserve(pairs, transitions);
    pair_serves_.reserve(pairs);
    std::vector<ctmdp::Transition> arrivals;
    for (std::size_t s = 0; s < n; ++s) {
        const double cost = loss_rate(s);
        arrivals.clear();
        for (std::size_t f = 0; f < caps_.size(); ++f) {
            const long k = occupancy(s, f);
            if (k < caps_[f] && rates_[f] > 0.0)
                arrivals.push_back({s + strides_[f], rates_[f]});
        }
        bool any_action = false;
        for (std::size_t f = 0; f < caps_.size(); ++f) {
            if (occupancy(s, f) == 0) continue;
            builder.add_action(s, arrivals, cost);
            builder.add_transition(s - strides_[f], mu);
            pair_serves_.push_back(f);
            any_action = true;
        }
        if (!any_action) {
            builder.add_action(s, arrivals, cost);
            pair_serves_.push_back(caps_.size());  // sentinel: idle
        }
    }
    model_ = std::move(builder).freeze();
}

std::vector<double> SubsystemCtmdp::flow_marginal(const linalg::Vector& pi,
                                                  std::size_t f) const {
    SOCBUF_REQUIRE(f < caps_.size());
    SOCBUF_REQUIRE(pi.size() == state_count());
    std::vector<double> marginal(static_cast<std::size_t>(caps_[f]) + 1, 0.0);
    for (std::size_t s = 0; s < pi.size(); ++s)
        marginal[static_cast<std::size_t>(occupancy(s, f))] += pi[s];
    return marginal;
}

std::vector<double> SubsystemCtmdp::service_shares(
    const std::vector<double>& occupation) const {
    SOCBUF_REQUIRE_MSG(occupation.size() == model_.pair_count(),
                       "occupation vector size mismatch");
    std::vector<double> shares(caps_.size(), 0.0);
    double total = 0.0;
    for (std::size_t p = 0; p < occupation.size(); ++p) {
        const std::size_t served = pair_serves_[p];
        if (served >= caps_.size()) continue;  // idle
        shares[served] += std::max(occupation[p], 0.0);
        total += std::max(occupation[p], 0.0);
    }
    if (total > 0.0)
        for (double& v : shares) v /= total;
    return shares;
}

SubsystemRecipe subsystem_recipe(
    const split::SplitResult& split, std::size_t index,
    const std::vector<long>& allocation, long model_cap,
    const std::vector<double>& measured_site_rates) {
    SOCBUF_REQUIRE_MSG(allocation.size() == split.sites.size(),
                       "allocation must cover every site");
    SOCBUF_REQUIRE_MSG(model_cap >= 1, "model cap must be >= 1");
    SOCBUF_REQUIRE_MSG(measured_site_rates.empty() ||
                           measured_site_rates.size() == split.sites.size(),
                       "measured rate vector must cover every site");
    SOCBUF_REQUIRE(index < split.subsystems.size());
    SubsystemRecipe recipe;
    for (const auto& f : split.subsystems[index].flows) {
        recipe.caps.push_back(std::clamp(allocation[f.site], 1L, model_cap));
        double rate = f.arrival_rate;
        // Blend: measured rates can be zero early in short warmup runs;
        // never let a live flow vanish from the model.
        if (!measured_site_rates.empty())
            rate = std::max(measured_site_rates[f.site], 0.25 * f.arrival_rate);
        recipe.rates.push_back(rate);
    }
    return recipe;
}

std::vector<SubsystemCtmdp> build_subsystem_models(
    const split::SplitResult& split, const std::vector<long>& allocation,
    long model_cap, const std::vector<double>& measured_site_rates) {
    std::vector<SubsystemCtmdp> out;
    out.reserve(split.subsystems.size());
    for (std::size_t i = 0; i < split.subsystems.size(); ++i)
        out.push_back(build_subsystem_model<SubsystemCtmdp>(
            split, i, allocation, model_cap, measured_site_rates));
    return out;
}

}  // namespace socbuf::core
