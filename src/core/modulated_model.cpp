#include "core/modulated_model.hpp"

#include "util/contracts.hpp"

#include <algorithm>
#include <utility>

namespace socbuf::core {

ModulatedSubsystemCtmdp::ModulatedSubsystemCtmdp(
    const split::Subsystem& subsystem, std::vector<long> caps,
    std::vector<double> rates)
    : subsystem_(&subsystem),
      caps_(std::move(caps)),
      mean_rates_(std::move(rates)) {
    SOCBUF_REQUIRE_MSG(caps_.size() == subsystem.flows.size(),
                       "caps must match flow count");
    SOCBUF_REQUIRE_MSG(mean_rates_.size() == subsystem.flows.size(),
                       "rates must match flow count");
    const std::size_t n = caps_.size();
    background_rate_.assign(n, 0.0);
    peak_rate_.assign(n, 0.0);
    on_rate_.assign(n, 0.0);
    off_rate_.assign(n, 0.0);

    for (std::size_t f = 0; f < n; ++f) {
        SOCBUF_REQUIRE_MSG(caps_[f] >= 1, "caps must be >= 1");
        SOCBUF_REQUIRE_MSG(mean_rates_[f] >= 0.0,
                           "rates must be non-negative");
        const auto& flow = subsystem.flows[f];
        if (!flow.bursty() || flow.arrival_rate <= 0.0) {
            background_rate_[f] = mean_rates_[f];
            continue;
        }
        // Scale the burst's long-run share to the (possibly measured)
        // mean-rate override; the remainder stays Poisson.
        const double burst_share =
            std::min(1.0, flow.burst_rate / flow.arrival_rate);
        const double burst_mean = mean_rates_[f] * burst_share;
        background_rate_[f] = mean_rates_[f] - burst_mean;
        const double duty =
            flow.on_time / (flow.on_time + flow.off_time);
        peak_rate_[f] = burst_mean / std::max(duty, 1e-9);
        on_rate_[f] = 1.0 / flow.on_time;
        off_rate_[f] = 1.0 / flow.off_time;
    }

    // Strides: occupancies first, then one binary phase digit per bursty
    // flow.
    occ_stride_.assign(n, 0);
    phase_stride_.assign(n, 0);
    std::size_t stride = 1;
    for (std::size_t f = 0; f < n; ++f) {
        occ_stride_[f] = stride;
        stride *= static_cast<std::size_t>(caps_[f]) + 1;
    }
    for (std::size_t f = 0; f < n; ++f) {
        if (peak_rate_[f] <= 0.0) continue;
        phase_stride_[f] = stride;
        stride *= 2;
        ++phase_index_of_flow_count_;
    }
    build();
}

std::size_t ModulatedSubsystemCtmdp::state_count() const {
    std::size_t total = 1;
    for (long c : caps_) total *= static_cast<std::size_t>(c) + 1;
    for (std::size_t f = 0; f < caps_.size(); ++f)
        if (phase_stride_[f] != 0) total *= 2;
    return total;
}

long ModulatedSubsystemCtmdp::occupancy(std::size_t state,
                                        std::size_t f) const {
    SOCBUF_REQUIRE(f < caps_.size());
    return static_cast<long>((state / occ_stride_[f]) %
                             (static_cast<std::size_t>(caps_[f]) + 1));
}

bool ModulatedSubsystemCtmdp::phase_on(std::size_t state,
                                       std::size_t f) const {
    SOCBUF_REQUIRE(f < caps_.size());
    if (phase_stride_[f] == 0) return true;
    return (state / phase_stride_[f]) % 2 == 1;
}

double ModulatedSubsystemCtmdp::arrival_rate_in_state(std::size_t state,
                                                      std::size_t f) const {
    double rate = background_rate_[f];
    if (peak_rate_[f] > 0.0 && phase_on(state, f)) rate += peak_rate_[f];
    return rate;
}

void ModulatedSubsystemCtmdp::build() {
    const std::size_t n_states = state_count();
    const double mu = subsystem_->service_rate;
    // Count the model first (one action per busy flow, or idle; each
    // action carries the state's arrivals and phase flips plus its
    // service), so every array is allocated once, at its exact size.
    std::size_t pairs = 0;
    std::size_t transitions = 0;
    for (std::size_t s = 0; s < n_states; ++s) {
        std::size_t common = 0;
        std::size_t busy = 0;
        for (std::size_t f = 0; f < caps_.size(); ++f) {
            const long k = occupancy(s, f);
            if (k < caps_[f] && arrival_rate_in_state(s, f) > 0.0) ++common;
            if (phase_stride_[f] != 0) ++common;
            if (k != 0) ++busy;
        }
        pairs += std::max<std::size_t>(busy, 1);
        transitions += busy == 0 ? common : busy * (common + 1);
    }
    ctmdp::CtmdpBuilder builder(n_states);
    builder.reserve(pairs, transitions);
    pair_serves_.reserve(pairs);
    std::vector<ctmdp::Transition> env;
    for (std::size_t s = 0; s < n_states; ++s) {
        // Environment transitions (phase flips) and arrivals are common to
        // every action of the state.
        env.clear();
        double loss_cost = 0.0;
        for (std::size_t f = 0; f < caps_.size(); ++f) {
            const long k = occupancy(s, f);
            const double lam = arrival_rate_in_state(s, f);
            if (k < caps_[f] && lam > 0.0)
                env.push_back({s + occ_stride_[f], lam});
            if (k == caps_[f])
                loss_cost += subsystem_->flows[f].weight * lam;
            if (phase_stride_[f] != 0) {
                if (phase_on(s, f))
                    env.push_back({s - phase_stride_[f], on_rate_[f]});
                else
                    env.push_back({s + phase_stride_[f], off_rate_[f]});
            }
        }
        bool any_action = false;
        for (std::size_t f = 0; f < caps_.size(); ++f) {
            if (occupancy(s, f) == 0) continue;
            builder.add_action(s, env, loss_cost);
            builder.add_transition(s - occ_stride_[f], mu);
            pair_serves_.push_back(f);
            any_action = true;
        }
        if (!any_action) {
            builder.add_action(s, env, loss_cost);
            pair_serves_.push_back(caps_.size());  // sentinel: idle
        }
    }
    model_ = std::move(builder).freeze();
}

std::vector<double> ModulatedSubsystemCtmdp::flow_marginal(
    const linalg::Vector& pi, std::size_t f) const {
    SOCBUF_REQUIRE(f < caps_.size());
    SOCBUF_REQUIRE(pi.size() == state_count());
    std::vector<double> marginal(static_cast<std::size_t>(caps_[f]) + 1,
                                 0.0);
    for (std::size_t s = 0; s < pi.size(); ++s)
        marginal[static_cast<std::size_t>(occupancy(s, f))] += pi[s];
    return marginal;
}

std::vector<double> ModulatedSubsystemCtmdp::service_shares(
    const std::vector<double>& occupation) const {
    SOCBUF_REQUIRE_MSG(occupation.size() == model_.pair_count(),
                       "occupation vector size mismatch");
    std::vector<double> shares(caps_.size(), 0.0);
    double total = 0.0;
    for (std::size_t p = 0; p < occupation.size(); ++p) {
        const std::size_t served = pair_serves_[p];
        if (served >= caps_.size()) continue;
        shares[served] += std::max(occupation[p], 0.0);
        total += std::max(occupation[p], 0.0);
    }
    if (total > 0.0)
        for (double& v : shares) v /= total;
    return shares;
}

}  // namespace socbuf::core
