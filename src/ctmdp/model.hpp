// Finite continuous-time Markov decision processes.
//
// A CTMDP here is: finite states, per-state finite action sets, exponential
// transition rates q(s'|s,a), and a cost *rate* c(s,a) to be minimized in
// long-run average (Feinberg's average-cost setting, which the paper builds
// on).
//
// A model is built once by a CtmdpBuilder and then frozen: an immutable,
// flat compressed-row (CSR) layout every solver reads directly.
//   * pairs — the (state, action) pairs, state-major: state s owns pairs
//     [pair_offsets()[s], pair_offsets()[s + 1]), action a of s is pair
//     pair_offsets()[s] + a;
//   * transitions — pair p owns entries [transition_offsets()[p],
//     transition_offsets()[p + 1]) of targets()/rates(), in append order;
//   * costs()[p], one per pair.
// Nothing is cached lazily, so a shared model is safe to read from any
// thread. States and actions carry no names; diagnostics synthesize
// positional labels ("action a1 of state s3").
//
// A CtmdpModel is a handle: freeze() moves the arrays into one immutable
// block behind a std::shared_ptr<const ...>, and copies share it. Copying
// a model is a reference-count bump, never an array copy (two copies
// hand out the same rates().data()). The block lives as long as its last
// handle; a SolveCache keeps a packed key, not a handle, so a solved
// model is freed with its builder's last copy.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace socbuf::ctmdp {

struct Transition {
    std::size_t target = 0;
    double rate = 0.0;
};

class CtmdpModel {
public:
    /// The empty model (no states). Solvable models come from
    /// CtmdpBuilder::freeze().
    CtmdpModel();

    [[nodiscard]] std::size_t state_count() const {
        return arrays_->pair_offset.size() - 1;
    }
    /// Total number of state-action pairs.
    [[nodiscard]] std::size_t pair_count() const {
        return arrays_->cost.size();
    }
    [[nodiscard]] std::size_t action_count(std::size_t state) const;

    /// Flat index of (state, action) in [0, pair_count()); the inverse of
    /// pair_state()/pair_action(), which binary-search the offsets — loops
    /// over pairs walk pair_offsets() state by state instead.
    [[nodiscard]] std::size_t pair_index(std::size_t state,
                                         std::size_t a) const;
    [[nodiscard]] std::size_t pair_state(std::size_t pair) const;
    [[nodiscard]] std::size_t pair_action(std::size_t pair) const;

    /// CSR arrays (see the file comment for the layout).
    [[nodiscard]] const std::vector<std::size_t>& pair_offsets() const {
        return arrays_->pair_offset;
    }
    [[nodiscard]] const std::vector<std::size_t>& transition_offsets()
        const {
        return arrays_->transition_offset;
    }
    [[nodiscard]] const std::vector<std::size_t>& targets() const {
        return arrays_->target;
    }
    [[nodiscard]] const std::vector<double>& rates() const {
        return arrays_->rate;
    }
    [[nodiscard]] const std::vector<double>& costs() const {
        return arrays_->cost;
    }

    /// Total exit rate of (s,a): the sum of its rates to other states.
    [[nodiscard]] double exit_rate(std::size_t state, std::size_t a) const;

    /// Calls visit(target, rate) for each transition of `pair` (a pair of
    /// `state`) that leaves the state at a positive rate, in append order:
    /// the jumps every solver builds its chain from. Self-loops and zero
    /// rates are skipped.
    template <typename Visit>
    void for_each_jump(std::size_t state, std::size_t pair,
                       Visit&& visit) const {
        const Arrays& m = *arrays_;
        for (std::size_t k = m.transition_offset[pair];
             k < m.transition_offset[pair + 1]; ++k)
            if (m.target[k] != state && m.rate[k] > 0.0)
                visit(m.target[k], m.rate[k]);
    }

    /// Structural bandwidth: max |target - state| over every transition
    /// with a positive rate, any action (0 for a diagonal-only model).
    /// Subsystem models pack occupancy vectors with strides, so this is
    /// the largest stride — the banded policy-evaluation path keys off it.
    [[nodiscard]] std::size_t bandwidth() const { return arrays_->bandwidth; }

    /// Total transition entries across every action — the model's
    /// structural non-zero count (sparsity diagnostic for the solvers).
    [[nodiscard]] std::size_t transition_count() const {
        return arrays_->target.size();
    }

    /// Largest exit rate over all pairs (uniformization bound).
    [[nodiscard]] double max_exit_rate() const {
        return arrays_->max_exit_rate;
    }

private:
    friend class CtmdpBuilder;

    struct Arrays {
        std::vector<std::size_t> pair_offset{0};
        std::vector<std::size_t> transition_offset{0};
        std::vector<std::size_t> target;
        std::vector<double> rate;
        std::vector<double> cost;
        // Structural summary, computed once by CtmdpBuilder::freeze().
        std::size_t bandwidth = 0;
        double max_exit_rate = 0.0;
    };

    explicit CtmdpModel(std::shared_ptr<const Arrays> arrays)
        : arrays_(std::move(arrays)) {}

    std::shared_ptr<const Arrays> arrays_;
};

/// Appends a model straight into its CSR arrays. Actions arrive in state
/// order — every action of state s before any action of a later state —
/// so the arrays are never rebuilt. Each append is checked against the
/// model's shape and every rate and cost must be finite; errors throw
/// util::ModelError naming the offending action and state by their
/// positional labels.
class CtmdpBuilder {
public:
    /// A model over `state_count` states.
    explicit CtmdpBuilder(std::size_t state_count);

    /// Reserve exact room for a model of `pair_count` actions holding
    /// `transition_count` transitions in all. A caller that counts its
    /// model first builds it with no regrowth, and the frozen arrays'
    /// capacity equals their size. Optional: appends past the reservation
    /// still work.
    void reserve(std::size_t pair_count, std::size_t transition_count);

    /// Append an action to `state` and return its index within the state.
    /// `state` may not precede the state of the previous append.
    /// Transitions to the same target are allowed and are summed by
    /// consumers.
    std::size_t add_action(std::size_t state,
                           const std::vector<Transition>& transitions = {},
                           double cost = 0.0);

    /// Append one more transition to the most recently added action.
    void add_transition(std::size_t target, double rate);

    /// Check that every state has an action, compute the structural
    /// summary, and move the arrays into the model's shared block. Throws
    /// util::ModelError on a model with no states or a state with no
    /// actions.
    [[nodiscard]] CtmdpModel freeze() &&;

private:
    /// Close every state before `state` (they receive no more actions).
    void advance_to(std::size_t state);

    CtmdpModel::Arrays arrays_;
    std::size_t state_count_;
    std::size_t current_ = 0;  // the state receiving actions
};

}  // namespace socbuf::ctmdp
