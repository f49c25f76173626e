#include "ctmdp/occupation.hpp"

#include "ctmc/stationary.hpp"
#include "util/contracts.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace socbuf::ctmdp {

namespace {

/// Stationary-pass stopping rules: the max-norm change of one sweep
/// below which pi counts as converged. The occupation measure feeds the
/// engine's quantile scores; the policy cost is a cross-check against
/// solver gains, so it runs tighter.
constexpr double kOccupationTolerance = 1e-11;
constexpr double kPolicyCostTolerance = 1e-12;
/// Sweep cap of either pass; hitting it throws util::NumericalError.
constexpr std::size_t kStationaryMaxSweeps = 500000;

}  // namespace

ctmc::GatherChain policy_gather_chain(const CtmdpModel& model,
                                      const RandomizedPolicy& policy) {
    const std::size_t n = model.state_count();
    constexpr std::size_t kMaxIndex = std::numeric_limits<std::uint32_t>::max();
    SOCBUF_REQUIRE_MSG(n <= kMaxIndex && model.transition_count() <= kMaxIndex,
                       "chain too large for 32-bit gather indices");
    const auto& pair_offset = model.pair_offsets();
    double max_exit = 0.0;
    for (std::size_t s = 0; s < n; ++s)
        for (std::size_t a = 0; a < model.action_count(s); ++a)
            if (policy.probability(s, a) > 0.0)
                max_exit = std::max(max_exit, model.exit_rate(s, a));
    const double lambda = std::max(max_exit, 1e-12) * 1.05 + 1e-9;
    // Calls visit(source, target, probability) for every policy-positive
    // jump, by source state, then action, then transition.
    const auto each_jump = [&](auto&& visit) {
        for (std::size_t s = 0; s < n; ++s)
            for (std::size_t p = pair_offset[s]; p < pair_offset[s + 1];
                 ++p) {
                const double pa = policy.probability(s, p - pair_offset[s]);
                if (pa <= 0.0) continue;
                model.for_each_jump(s, p, [&](std::size_t target,
                                              double rate) {
                    visit(s, target, pa * rate / lambda);
                });
            }
    };
    // A stable counting sort on the target: count, prefix-sum, then fill
    // each row front to back in jump order, so row t gathers its terms in
    // the order a source-major scatter would have added them.
    ctmc::GatherChain chain;
    chain.offset.assign(n + 1, 0);
    each_jump([&](std::size_t, std::size_t target, double) {
        ++chain.offset[target + 1];
    });
    for (std::size_t t = 0; t < n; ++t) chain.offset[t + 1] += chain.offset[t];
    chain.source.resize(chain.offset[n]);
    chain.probability.resize(chain.offset[n]);
    chain.stay.assign(n, 1.0);
    std::vector<std::uint32_t> cursor(chain.offset.begin(),
                                      chain.offset.end() - 1);
    each_jump([&](std::size_t s, std::size_t target, double prob) {
        const std::uint32_t slot = cursor[target]++;
        chain.source[slot] = static_cast<std::uint32_t>(s);
        chain.probability[slot] = prob;
        chain.stay[s] -= prob;
    });
    return chain;
}

std::vector<double> occupation_of_policy(const CtmdpModel& model,
                                         const RandomizedPolicy& policy) {
    const linalg::Vector pi =
        ctmc::stationary_gauss_seidel(policy_gather_chain(model, policy),
                                      kOccupationTolerance,
                                      kStationaryMaxSweeps)
            .pi;
    const auto& pair_offset = model.pair_offsets();
    std::vector<double> x(model.pair_count(), 0.0);
    for (std::size_t s = 0; s < model.state_count(); ++s)
        for (std::size_t p = pair_offset[s]; p < pair_offset[s + 1]; ++p)
            x[p] = pi[s] * policy.probability(s, p - pair_offset[s]);
    return x;
}

double average_cost_of_policy(const CtmdpModel& model,
                              const RandomizedPolicy& policy) {
    const linalg::Vector pi =
        ctmc::stationary_gauss_seidel(policy_gather_chain(model, policy),
                                      kPolicyCostTolerance,
                                      kStationaryMaxSweeps)
            .pi;
    double cost = 0.0;
    for (std::size_t s = 0; s < model.state_count(); ++s) {
        for (std::size_t a = 0; a < policy.action_count(s); ++a)
            cost += pi[s] * policy.probability(s, a) *
                    model.costs()[model.pair_index(s, a)];
    }
    return cost;
}

std::vector<double> state_marginal(
    const linalg::Vector& pi,
    const std::function<std::size_t(std::size_t)>& feature,
    std::size_t feature_cardinality) {
    SOCBUF_REQUIRE_MSG(feature_cardinality > 0, "empty feature domain");
    std::vector<double> marginal(feature_cardinality, 0.0);
    for (std::size_t s = 0; s < pi.size(); ++s) {
        const std::size_t f = feature(s);
        SOCBUF_REQUIRE_MSG(f < feature_cardinality,
                           "feature value out of range");
        marginal[f] += pi[s];
    }
    return marginal;
}

double marginal_mean(const std::vector<double>& marginal) {
    double mean = 0.0;
    for (std::size_t k = 0; k < marginal.size(); ++k)
        mean += static_cast<double>(k) * marginal[k];
    return mean;
}

std::size_t marginal_quantile(const std::vector<double>& marginal,
                              double tail_mass) {
    SOCBUF_REQUIRE_MSG(!marginal.empty(), "empty marginal");
    SOCBUF_REQUIRE_MSG(tail_mass >= 0.0 && tail_mass <= 1.0,
                       "tail mass outside [0,1]");
    double tail = 0.0;
    for (double p : marginal) tail += p;
    // tail currently ~1; walk k upward removing P(X = k) until the
    // remaining strict-tail P(X > k) drops to tail_mass.
    for (std::size_t k = 0; k < marginal.size(); ++k) {
        tail -= marginal[k];
        if (tail <= tail_mass + 1e-15) return k;
    }
    return marginal.size() - 1;
}

}  // namespace socbuf::ctmdp
