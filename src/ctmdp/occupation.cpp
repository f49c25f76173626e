#include "ctmdp/occupation.hpp"

#include "ctmc/stationary.hpp"
#include "linalg/sparse.hpp"
#include "util/contracts.hpp"

#include <algorithm>
#include <cmath>

namespace socbuf::ctmdp {

InducedUniformizedChain induced_uniformized_chain(
    const CtmdpModel& model, const RandomizedPolicy& policy) {
    const std::size_t n = model.state_count();
    const auto& pair_offset = model.pair_offsets();
    InducedUniformizedChain chain;
    std::vector<linalg::SparseEntry> entries;
    entries.reserve(model.transition_count());
    chain.stay.assign(n, 1.0);
    double max_exit = 0.0;
    for (std::size_t s = 0; s < n; ++s)
        for (std::size_t a = 0; a < model.action_count(s); ++a)
            if (policy.probability(s, a) > 0.0)
                max_exit = std::max(max_exit, model.exit_rate(s, a));
    chain.lambda = std::max(max_exit, 1e-12) * 1.05 + 1e-9;
    for (std::size_t s = 0; s < n; ++s) {
        for (std::size_t p = pair_offset[s]; p < pair_offset[s + 1]; ++p) {
            const double pa = policy.probability(s, p - pair_offset[s]);
            if (pa <= 0.0) continue;
            model.for_each_jump(s, p, [&](std::size_t target, double rate) {
                const double prob = pa * rate / chain.lambda;
                entries.push_back({s, target, prob});
                chain.stay[s] -= prob;
            });
        }
    }
    // CSR keeps the (state, action, transition) append order within each
    // row, so the stationary iteration's transposed accumulation applies
    // the same additions in the same order as the old explicit jump list —
    // bit-identical — while streaming three flat arrays.
    chain.jumps = linalg::SparseMatrix::from_triplets(n, n, entries);
    return chain;
}

std::vector<double> occupation_of_policy(const CtmdpModel& model,
                                         const RandomizedPolicy& policy,
                                         exec::Executor* executor) {
    const InducedUniformizedChain chain =
        induced_uniformized_chain(model, policy);
    const linalg::Vector pi = ctmc::stationary_power_sparse(
        chain.jumps, chain.stay, 1e-11, 500000, executor);
    const auto& pair_offset = model.pair_offsets();
    std::vector<double> x(model.pair_count(), 0.0);
    for (std::size_t s = 0; s < model.state_count(); ++s)
        for (std::size_t p = pair_offset[s]; p < pair_offset[s + 1]; ++p)
            x[p] = pi[s] * policy.probability(s, p - pair_offset[s]);
    return x;
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
