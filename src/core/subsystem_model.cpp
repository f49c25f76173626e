#include "core/subsystem_model.hpp"

#include "util/contracts.hpp"

#include <algorithm>
#include <utility>

namespace socbuf::core {

SubsystemCtmdp::SubsystemCtmdp(const split::Subsystem& subsystem,
                               std::vector<long> caps,
                               std::vector<double> rates, bool modulated)
    : subsystem_(&subsystem),
      caps_(std::move(caps)),
      background_rate_(std::move(rates)) {
    SOCBUF_REQUIRE_MSG(caps_.size() == subsystem.flows.size(),
                       "caps must match flow count");
    SOCBUF_REQUIRE_MSG(background_rate_.size() == subsystem.flows.size(),
                       "rates must match flow count");
    const std::size_t n = caps_.size();
    peak_rate_.assign(n, 0.0);
    for (std::size_t f = 0; f < n; ++f) {
        SOCBUF_REQUIRE_MSG(caps_[f] >= 1, "caps must be >= 1");
        const double mean = background_rate_[f];
        SOCBUF_REQUIRE_MSG(mean >= 0.0, "rates must be non-negative");
        const auto& flow = subsystem.flows[f];
        if (!modulated || !flow.bursty() || flow.arrival_rate <= 0.0)
            continue;
        // Scale the burst's long-run share to the (possibly measured)
        // mean-rate override; the remainder stays Poisson.
        const double burst_share =
            std::min(1.0, flow.burst_rate / flow.arrival_rate);
        const double burst_mean = mean * burst_share;
        background_rate_[f] = mean - burst_mean;
        const double duty = flow.on_time / (flow.on_time + flow.off_time);
        peak_rate_[f] = burst_mean / std::max(duty, 1e-9);
    }
    // Occupancy digits first, then one binary phase digit per flow whose
    // burst has a peak.
    strides_.assign(n, 0);
    phase_strides_.assign(n, 0);
    std::size_t stride = 1;
    for (std::size_t f = 0; f < n; ++f) {
        strides_[f] = stride;
        stride *= static_cast<std::size_t>(caps_[f]) + 1;
    }
    for (std::size_t f = 0; f < n; ++f) {
        if (peak_rate_[f] <= 0.0) continue;
        phase_strides_[f] = stride;
        stride *= 2;
        ++modulated_flows_;
    }
    build(stride);
}

long SubsystemCtmdp::occupancy(std::size_t state, std::size_t f) const {
    SOCBUF_REQUIRE(f < caps_.size());
    return static_cast<long>((state / strides_[f]) %
                             (static_cast<std::size_t>(caps_[f]) + 1));
}

bool SubsystemCtmdp::phase_on(std::size_t state, std::size_t f) const {
    SOCBUF_REQUIRE(f < caps_.size());
    if (phase_strides_[f] == 0) return true;
    return (state / phase_strides_[f]) % 2 == 1;
}

double SubsystemCtmdp::arrival_rate(std::size_t state, std::size_t f) const {
    double rate = background_rate_[f];
    if (peak_rate_[f] > 0.0 && phase_on(state, f)) rate += peak_rate_[f];
    return rate;
}

double SubsystemCtmdp::loss_rate(std::size_t state) const {
    double cost = 0.0;
    for (std::size_t f = 0; f < caps_.size(); ++f)
        if (occupancy(state, f) == caps_[f])
            cost += subsystem_->flows[f].weight * arrival_rate(state, f);
    return cost;
}

void SubsystemCtmdp::build(std::size_t states) {
    const double mu = subsystem_->service_rate;
    // Count the model first (one action per busy flow, or idle; each
    // action carries the state's arrivals and phase flips plus its
    // service), so every array is allocated once, at its exact size.
    std::size_t pairs = 0;
    std::size_t transitions = 0;
    for (std::size_t s = 0; s < states; ++s) {
        std::size_t common = 0;
        std::size_t busy = 0;
        for (std::size_t f = 0; f < caps_.size(); ++f) {
            const long k = occupancy(s, f);
            if (k < caps_[f] && arrival_rate(s, f) > 0.0) ++common;
            if (phase_strides_[f] != 0) ++common;
            if (k != 0) ++busy;
        }
        pairs += std::max<std::size_t>(busy, 1);
        transitions += busy == 0 ? common : busy * (common + 1);
    }
    ctmdp::CtmdpBuilder builder(states);
    builder.reserve(pairs, transitions);
    pair_serves_.reserve(pairs);
    const auto& flows = subsystem_->flows;
    std::vector<ctmdp::Transition> common;
    for (std::size_t s = 0; s < states; ++s) {
        // Arrivals and phase flips are common to every action of the
        // state.
        common.clear();
        for (std::size_t f = 0; f < caps_.size(); ++f) {
            const double lam = arrival_rate(s, f);
            if (occupancy(s, f) < caps_[f] && lam > 0.0)
                common.push_back({s + strides_[f], lam});
            if (phase_strides_[f] == 0) continue;
            if (phase_on(s, f))
                common.push_back(
                    {s - phase_strides_[f], 1.0 / flows[f].on_time});
            else
                common.push_back(
                    {s + phase_strides_[f], 1.0 / flows[f].off_time});
        }
        const double cost = loss_rate(s);
        bool any_action = false;
        for (std::size_t f = 0; f < caps_.size(); ++f) {
            if (occupancy(s, f) == 0) continue;
            builder.add_action(s, common, cost);
            builder.add_transition(s - strides_[f], mu);
            pair_serves_.push_back(f);
            any_action = true;
        }
        if (!any_action) {
            builder.add_action(s, common, cost);
            pair_serves_.push_back(caps_.size());  // sentinel: idle
        }
    }
    model_ = std::move(builder).freeze();
}

std::vector<double> SubsystemCtmdp::flow_marginal(const linalg::Vector& pi,
                                                  std::size_t f) const {
    SOCBUF_REQUIRE(f < caps_.size());
    SOCBUF_REQUIRE(pi.size() == model_.state_count());
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

SubsystemCtmdp build_subsystem_model(
    const split::SplitResult& split, std::size_t index,
    const std::vector<long>& allocation, long model_cap,
    const std::vector<double>& measured_site_rates, bool modulated) {
    SOCBUF_REQUIRE_MSG(allocation.size() == split.sites.size(),
                       "allocation must cover every site");
    SOCBUF_REQUIRE_MSG(model_cap >= 1, "model cap must be >= 1");
    SOCBUF_REQUIRE_MSG(measured_site_rates.empty() ||
                           measured_site_rates.size() == split.sites.size(),
                       "measured rate vector must cover every site");
    SOCBUF_REQUIRE(index < split.subsystems.size());
    const split::Subsystem& subsystem = split.subsystems[index];
    std::vector<long> caps;
    std::vector<double> rates;
    for (const auto& f : subsystem.flows) {
        caps.push_back(std::clamp(allocation[f.site], 1L, model_cap));
        double rate = f.arrival_rate;
        // Blend: measured rates can be zero early in short warmup runs;
        // never let a live flow vanish from the model.
        if (!measured_site_rates.empty())
            rate = std::max(measured_site_rates[f.site], 0.25 * f.arrival_rate);
        rates.push_back(rate);
    }
    return SubsystemCtmdp(subsystem, std::move(caps), std::move(rates),
                          modulated);
}

std::vector<SubsystemCtmdp> build_subsystem_models(
    const split::SplitResult& split, const std::vector<long>& allocation,
    long model_cap, const std::vector<double>& measured_site_rates) {
    std::vector<SubsystemCtmdp> out;
    out.reserve(split.subsystems.size());
    for (std::size_t i = 0; i < split.subsystems.size(); ++i)
        out.push_back(build_subsystem_model(split, i, allocation, model_cap,
                                            measured_site_rates));
    return out;
}

}  // namespace socbuf::core
