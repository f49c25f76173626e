#include "ctmdp/policy.hpp"

#include "util/contracts.hpp"

#include <algorithm>
#include <cmath>

namespace socbuf::ctmdp {

std::size_t DeterministicPolicy::action(std::size_t state) const {
    SOCBUF_REQUIRE_MSG(state < choice_.size(), "state out of range");
    return choice_[state];
}

RandomizedPolicy::RandomizedPolicy(
    const std::vector<std::vector<double>>& probs)
    : RandomizedPolicy([&] {
          auto flat = std::make_shared<Flat>();
          flat->offset.reserve(probs.size() + 1);
          for (const auto& dist : probs) {
              SOCBUF_REQUIRE_MSG(!dist.empty(),
                                 "state with empty distribution");
              double total = 0.0;
              for (double p : dist) {
                  SOCBUF_REQUIRE_MSG(p >= -1e-12,
                                     "negative action probability");
                  total += p;
              }
              SOCBUF_REQUIRE_MSG(std::fabs(total - 1.0) < 1e-6,
                                 "action distribution does not sum to 1");
              for (double p : dist)
                  flat->probs.push_back(std::max(p, 0.0) / total);
              flat->offset.push_back(flat->probs.size());
          }
          return flat;
      }()) {}

RandomizedPolicy RandomizedPolicy::from_deterministic(
    const DeterministicPolicy& d, const CtmdpModel& model) {
    SOCBUF_REQUIRE(d.state_count() == model.state_count());
    auto flat = std::make_shared<Flat>();
    flat->offset = model.pair_offsets();
    flat->probs.assign(model.pair_count(), 0.0);
    for (std::size_t s = 0; s < model.state_count(); ++s) {
        SOCBUF_REQUIRE_MSG(d.action(s) < model.action_count(s),
                           "policy action out of range");
        flat->probs[flat->offset[s] + d.action(s)] = 1.0;
    }
    return RandomizedPolicy(std::move(flat));
}

std::size_t RandomizedPolicy::action_count(std::size_t state) const {
    SOCBUF_REQUIRE_MSG(state < states_, "state out of range");
    return flat_->offset[state + 1] - flat_->offset[state];
}

double RandomizedPolicy::probability(std::size_t state,
                                     std::size_t action) const {
    SOCBUF_REQUIRE_MSG(action < action_count(state), "action out of range");
    return flat_->probs[flat_->offset[state] + action];
}

std::size_t RandomizedPolicy::switching_state_count(double tol) const {
    std::size_t count = 0;
    for (std::size_t s = 0; s < states_; ++s) {
        std::size_t support = 0;
        for (std::size_t i = flat_->offset[s]; i < flat_->offset[s + 1]; ++i)
            if (flat_->probs[i] > tol) ++support;
        if (support > 1) ++count;
    }
    return count;
}

ctmc::Generator induced_generator(const CtmdpModel& model,
                                  const RandomizedPolicy& policy) {
    SOCBUF_REQUIRE_MSG(policy.state_count() == model.state_count(),
                       "policy/model state count mismatch");
    ctmc::Generator gen(model.state_count());
    for (std::size_t s = 0; s < model.state_count(); ++s) {
        const std::size_t actions = policy.action_count(s);
        SOCBUF_REQUIRE_MSG(actions == model.action_count(s),
                           "policy/model action count mismatch");
        for (std::size_t a = 0; a < actions; ++a) {
            const double pa = policy.probability(s, a);
            if (pa <= 0.0) continue;
            model.for_each_jump(
                s, model.pair_index(s, a),
                [&](std::size_t target, double rate) {
                    gen.add_rate(s, target, pa * rate);
                });
        }
    }
    return gen;
}

}  // namespace socbuf::ctmdp
