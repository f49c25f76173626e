// Stationary policies for CTMDPs: deterministic (one action per state, as
// value and policy iteration return) and randomized (a distribution per
// state, as the occupation-measure LP's phi(a|s) = x(s,a) / pi(s) gives).
// switching_state_count() counts the states where a randomized policy
// actually mixes ("switches").
#pragma once

#include "ctmc/generator.hpp"
#include "ctmdp/model.hpp"
#include "rng/engine.hpp"

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace socbuf::ctmdp {

/// A stationary deterministic policy: one action index per state.
class DeterministicPolicy {
public:
    DeterministicPolicy() = default;
    explicit DeterministicPolicy(std::vector<std::size_t> choice)
        : choice_(std::move(choice)) {}

    [[nodiscard]] std::size_t action(std::size_t state) const;
    [[nodiscard]] std::size_t state_count() const { return choice_.size(); }
    [[nodiscard]] const std::vector<std::size_t>& choices() const {
        return choice_;
    }

    bool operator==(const DeterministicPolicy& other) const {
        return choice_ == other.choice_;
    }
    bool operator!=(const DeterministicPolicy& other) const {
        return !(*this == other);
    }

private:
    std::vector<std::size_t> choice_;
};

/// A stationary randomized policy: per-state distribution over actions,
/// stored flat. State s's probabilities are probs[offset[s], offset[s + 1]),
/// one per action, so a policy lifted onto a model lines up with the
/// model's pairs. The arrays are immutable once built and copies share
/// them, as CtmdpModel's do.
class RandomizedPolicy {
public:
    RandomizedPolicy() = default;
    explicit RandomizedPolicy(const std::vector<std::vector<double>>& probs);

    /// Degenerate (deterministic) policy lifting.
    static RandomizedPolicy from_deterministic(const DeterministicPolicy& d,
                                               const CtmdpModel& model);

    [[nodiscard]] std::size_t state_count() const { return states_; }
    [[nodiscard]] std::size_t action_count(std::size_t state) const;
    [[nodiscard]] double probability(std::size_t state,
                                     std::size_t action) const;

    /// Sample an action for `state`.
    [[nodiscard]] std::size_t sample(std::size_t state,
                                     rng::RandomEngine& engine) const;

    /// Number of states whose distribution puts mass > `tol` on more than
    /// one action — the "switching" states of the K-switching policy.
    [[nodiscard]] std::size_t switching_state_count(double tol = 1e-9) const;

    /// True when no state randomizes (up to `tol`).
    [[nodiscard]] bool is_deterministic(double tol = 1e-9) const {
        return switching_state_count(tol) == 0;
    }

    /// Most likely action in each state.
    [[nodiscard]] DeterministicPolicy mode() const;

private:
    struct Flat {
        std::vector<double> probs;
        std::vector<std::size_t> offset{0};
    };
    explicit RandomizedPolicy(std::shared_ptr<const Flat> flat)
        : flat_(std::move(flat)), states_(flat_->offset.size() - 1) {}

    std::shared_ptr<const Flat> flat_;  // null for the empty policy
    std::size_t states_ = 0;
};

/// The CTMC induced on `model` by following `policy`.
[[nodiscard]] ctmc::Generator induced_generator(const CtmdpModel& model,
                                                const RandomizedPolicy& policy);

}  // namespace socbuf::ctmdp
