#include "ctmdp/model.hpp"

#include "util/contracts.hpp"

#include <algorithm>
#include <string>

namespace socbuf::ctmdp {

namespace {

// Positional labels for diagnostics; models store no names.
std::string state_label(std::size_t state) {
    return "s" + std::to_string(state);
}

std::string action_label(std::size_t action) {
    return "a" + std::to_string(action);
}

}  // namespace

std::size_t CtmdpModel::action_count(std::size_t state) const {
    SOCBUF_REQUIRE_MSG(state < state_count(), "unknown state");
    return pair_offset_[state + 1] - pair_offset_[state];
}

std::size_t CtmdpModel::pair_index(std::size_t state, std::size_t a) const {
    SOCBUF_REQUIRE_MSG(a < action_count(state), "unknown action");
    return pair_offset_[state] + a;
}

std::size_t CtmdpModel::pair_state(std::size_t pair) const {
    SOCBUF_REQUIRE_MSG(pair < pair_count(), "pair out of range");
    // The last offset <= pair; every state owns at least one pair, so the
    // offsets are strictly increasing and the owner is unique.
    const auto after =
        std::upper_bound(pair_offset_.begin(), pair_offset_.end(), pair);
    return static_cast<std::size_t>(after - pair_offset_.begin()) - 1;
}

std::size_t CtmdpModel::pair_action(std::size_t pair) const {
    return pair - pair_offset_[pair_state(pair)];
}

double CtmdpModel::exit_rate(std::size_t state, std::size_t a) const {
    double total = 0.0;
    for_each_jump(state, pair_index(state, a),
                  [&](std::size_t, double rate) { total += rate; });
    return total;
}

CtmdpBuilder::CtmdpBuilder(std::size_t state_count,
                           std::size_t extra_cost_count)
    : state_count_(state_count) {
    model_.extra_cost_count_ = extra_cost_count;
}

void CtmdpBuilder::advance_to(std::size_t state) {
    for (; current_ < state; ++current_)
        model_.pair_offset_.push_back(model_.pair_count());
}

std::size_t CtmdpBuilder::add_action(std::size_t state,
                                     const std::vector<Transition>& transitions,
                                     double cost,
                                     const std::vector<double>& extra_costs) {
    if (state >= state_count_)
        throw util::ModelError("action appended to unknown state " +
                               state_label(state) + " (model has " +
                               std::to_string(state_count_) + " states)");
    if (state < current_)
        throw util::ModelError("action of state " + state_label(state) +
                               " appended out of order, after state " +
                               state_label(current_));
    advance_to(state);
    const std::size_t a = model_.pair_count() - model_.pair_offset_[state];
    if (extra_costs.size() != model_.extra_cost_count_)
        throw util::ModelError(
            "action " + action_label(a) + " of state " + state_label(state) +
            " has wrong extra-cost width " +
            std::to_string(extra_costs.size()) + " (model wants " +
            std::to_string(model_.extra_cost_count_) + ")");
    model_.cost_.push_back(cost);
    model_.extra_cost_.insert(model_.extra_cost_.end(), extra_costs.begin(),
                              extra_costs.end());
    model_.transition_offset_.push_back(model_.target_.size());
    for (const Transition& t : transitions) add_transition(t.target, t.rate);
    return a;
}

void CtmdpBuilder::add_transition(std::size_t target, double rate) {
    SOCBUF_REQUIRE_MSG(model_.pair_count() > 0,
                       "add_transition before any add_action");
    if (target >= state_count_ || !(rate >= 0.0)) {
        const std::size_t a =
            model_.pair_count() - 1 - model_.pair_offset_[current_];
        const std::string where = "action " + action_label(a) +
                                  " of state " + state_label(current_);
        if (target >= state_count_)
            throw util::ModelError(where + " targets unknown state " +
                                   std::to_string(target));
        throw util::ModelError("negative rate in " + where);
    }
    model_.target_.push_back(target);
    model_.rate_.push_back(rate);
    ++model_.transition_offset_.back();
}

CtmdpModel CtmdpBuilder::freeze() && {
    if (state_count_ == 0) throw util::ModelError("CTMDP has no states");
    advance_to(state_count_);
    CtmdpModel& m = model_;
    for (std::size_t s = 0; s < state_count_; ++s) {
        if (m.pair_offset_[s + 1] == m.pair_offset_[s])
            throw util::ModelError("state " + state_label(s) +
                                   " has no actions");
        for (std::size_t p = m.pair_offset_[s]; p < m.pair_offset_[s + 1];
             ++p) {
            // Zero rates add nothing to the exit rate and self-loops
            // nothing to the band, so the jumps give both exactly.
            double exit = 0.0;
            m.for_each_jump(s, p, [&](std::size_t t, double rate) {
                exit += rate;
                m.bandwidth_ = std::max(m.bandwidth_, t > s ? t - s : s - t);
            });
            m.max_exit_rate_ = std::max(m.max_exit_rate_, exit);
        }
    }
    return std::move(model_);
}

}  // namespace socbuf::ctmdp
