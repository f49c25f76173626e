#include "ctmdp/policy.hpp"

#include "util/contracts.hpp"

#include <cmath>

namespace socbuf::ctmdp {

std::size_t DeterministicPolicy::action(std::size_t state) const {
    SOCBUF_REQUIRE_MSG(state < choice_.size(), "state out of range");
    return choice_[state];
}

RandomizedPolicy::RandomizedPolicy(std::vector<std::vector<double>> probs)
    : probs_(std::move(probs)) {
    for (auto& dist : probs_) {
        SOCBUF_REQUIRE_MSG(!dist.empty(), "state with empty distribution");
        double total = 0.0;
        for (double p : dist) {
            SOCBUF_REQUIRE_MSG(p >= -1e-12, "negative action probability");
            total += p;
        }
        SOCBUF_REQUIRE_MSG(std::fabs(total - 1.0) < 1e-6,
                           "action distribution does not sum to 1");
        for (double& p : dist) p = std::max(p, 0.0) / total;
    }
}

RandomizedPolicy RandomizedPolicy::from_deterministic(
    const DeterministicPolicy& d, const CtmdpModel& model) {
    SOCBUF_REQUIRE(d.state_count() == model.state_count());
    std::vector<std::vector<double>> probs(model.state_count());
    for (std::size_t s = 0; s < model.state_count(); ++s) {
        probs[s].assign(model.action_count(s), 0.0);
        SOCBUF_REQUIRE_MSG(d.action(s) < probs[s].size(),
                           "policy action out of range");
        probs[s][d.action(s)] = 1.0;
    }
    return RandomizedPolicy(std::move(probs));
}

const std::vector<double>& RandomizedPolicy::distribution(
    std::size_t state) const {
    SOCBUF_REQUIRE_MSG(state < probs_.size(), "state out of range");
    return probs_[state];
}

double RandomizedPolicy::probability(std::size_t state,
                                     std::size_t action) const {
    const auto& dist = distribution(state);
    SOCBUF_REQUIRE_MSG(action < dist.size(), "action out of range");
    return dist[action];
}

std::size_t RandomizedPolicy::sample(std::size_t state,
                                     rng::RandomEngine& engine) const {
    return engine.discrete(distribution(state));
}

std::size_t RandomizedPolicy::switching_state_count(double tol) const {
    std::size_t count = 0;
    for (const auto& dist : probs_) {
        std::size_t support = 0;
        for (double p : dist)
            if (p > tol) ++support;
        if (support > 1) ++count;
    }
    return count;
}

DeterministicPolicy RandomizedPolicy::mode() const {
    std::vector<std::size_t> choice(probs_.size(), 0);
    for (std::size_t s = 0; s < probs_.size(); ++s) {
        double best = -1.0;
        for (std::size_t a = 0; a < probs_[s].size(); ++a) {
            if (probs_[s][a] > best) {
                best = probs_[s][a];
                choice[s] = a;
            }
        }
    }
    return DeterministicPolicy(std::move(choice));
}

ctmc::Generator induced_generator(const CtmdpModel& model,
                                  const RandomizedPolicy& policy) {
    SOCBUF_REQUIRE_MSG(policy.state_count() == model.state_count(),
                       "policy/model state count mismatch");
    ctmc::Generator gen(model.state_count());
    for (std::size_t s = 0; s < model.state_count(); ++s) {
        const auto& dist = policy.distribution(s);
        SOCBUF_REQUIRE_MSG(dist.size() == model.action_count(s),
                           "policy/model action count mismatch");
        for (std::size_t a = 0; a < dist.size(); ++a) {
            if (dist[a] <= 0.0) continue;
            model.for_each_jump(
                s, model.pair_index(s, a),
                [&](std::size_t target, double rate) {
                    gen.add_rate(s, target, dist[a] * rate);
                });
        }
    }
    return gen;
}

}  // namespace socbuf::ctmdp
