#include "ctmdp/model.hpp"

#include "util/contracts.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>

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

// Every empty model shares one block, so default construction allocates
// nothing after the first.
CtmdpModel::CtmdpModel() {
    static const auto empty = std::make_shared<const Arrays>();
    arrays_ = empty;
}

std::size_t CtmdpModel::action_count(std::size_t state) const {
    SOCBUF_REQUIRE_MSG(state < state_count(), "unknown state");
    return arrays_->pair_offset[state + 1] - arrays_->pair_offset[state];
}

std::size_t CtmdpModel::pair_index(std::size_t state, std::size_t a) const {
    SOCBUF_REQUIRE_MSG(a < action_count(state), "unknown action");
    return arrays_->pair_offset[state] + a;
}

std::size_t CtmdpModel::pair_state(std::size_t pair) const {
    SOCBUF_REQUIRE_MSG(pair < pair_count(), "pair out of range");
    // The last offset <= pair; every state owns at least one pair, so the
    // offsets are strictly increasing and the owner is unique.
    const std::vector<std::size_t>& offsets = arrays_->pair_offset;
    const auto after = std::upper_bound(offsets.begin(), offsets.end(), pair);
    return static_cast<std::size_t>(after - offsets.begin()) - 1;
}

std::size_t CtmdpModel::pair_action(std::size_t pair) const {
    return pair - arrays_->pair_offset[pair_state(pair)];
}

double CtmdpModel::exit_rate(std::size_t state, std::size_t a) const {
    double total = 0.0;
    for_each_jump(state, pair_index(state, a),
                  [&](std::size_t, double rate) { total += rate; });
    return total;
}

CtmdpBuilder::CtmdpBuilder(std::size_t state_count)
    : state_count_(state_count) {}

void CtmdpBuilder::reserve(std::size_t pair_count,
                           std::size_t transition_count) {
    arrays_.pair_offset.reserve(state_count_ + 1);
    arrays_.transition_offset.reserve(pair_count + 1);
    arrays_.cost.reserve(pair_count);
    arrays_.target.reserve(transition_count);
    arrays_.rate.reserve(transition_count);
}

void CtmdpBuilder::advance_to(std::size_t state) {
    for (; current_ < state; ++current_)
        arrays_.pair_offset.push_back(arrays_.cost.size());
}

std::size_t CtmdpBuilder::add_action(std::size_t state,
                                     const std::vector<Transition>& transitions,
                                     double cost) {
    if (state >= state_count_)
        throw util::ModelError("action appended to unknown state " +
                               state_label(state) + " (model has " +
                               std::to_string(state_count_) + " states)");
    if (state < current_)
        throw util::ModelError("action of state " + state_label(state) +
                               " appended out of order, after state " +
                               state_label(current_));
    advance_to(state);
    const std::size_t a = arrays_.cost.size() - arrays_.pair_offset[state];
    if (!std::isfinite(cost))
        throw util::ModelError("non-finite cost in action " +
                               action_label(a) + " of state " +
                               state_label(state));
    arrays_.cost.push_back(cost);
    arrays_.transition_offset.push_back(arrays_.target.size());
    for (const Transition& t : transitions) add_transition(t.target, t.rate);
    return a;
}

void CtmdpBuilder::add_transition(std::size_t target, double rate) {
    SOCBUF_REQUIRE_MSG(!arrays_.cost.empty(),
                       "add_transition before any add_action");
    if (target >= state_count_ || !std::isfinite(rate) || rate < 0.0) {
        const std::size_t a =
            arrays_.cost.size() - 1 - arrays_.pair_offset[current_];
        const std::string where = "action " + action_label(a) +
                                  " of state " + state_label(current_);
        if (target >= state_count_)
            throw util::ModelError(where + " targets unknown state " +
                                   std::to_string(target));
        if (!std::isfinite(rate))
            throw util::ModelError("non-finite rate in " + where);
        throw util::ModelError("negative rate in " + where);
    }
    arrays_.target.push_back(target);
    arrays_.rate.push_back(rate);
    ++arrays_.transition_offset.back();
}

CtmdpModel CtmdpBuilder::freeze() && {
    if (state_count_ == 0) throw util::ModelError("CTMDP has no states");
    advance_to(state_count_);
    // The summary is written through the builder's own pointer before the
    // model is handed out; no other handle sees the block change.
    const auto arrays =
        std::make_shared<CtmdpModel::Arrays>(std::move(arrays_));
    CtmdpModel model(arrays);
    for (std::size_t s = 0; s < state_count_; ++s) {
        if (model.action_count(s) == 0)
            throw util::ModelError("state " + state_label(s) +
                                   " has no actions");
        for (std::size_t p = arrays->pair_offset[s];
             p < arrays->pair_offset[s + 1]; ++p) {
            // Zero rates add nothing to the exit rate and self-loops
            // nothing to the band, so the jumps give both exactly.
            double exit = 0.0;
            model.for_each_jump(s, p, [&](std::size_t t, double rate) {
                exit += rate;
                arrays->bandwidth =
                    std::max(arrays->bandwidth, t > s ? t - s : s - t);
            });
            arrays->max_exit_rate = std::max(arrays->max_exit_rate, exit);
        }
    }
    return model;
}

}  // namespace socbuf::ctmdp
