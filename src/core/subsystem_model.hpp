// Translate a linear subsystem (one bus + its buffer sites) into a CTMDP:
//   state  = occupancy vector (k_1..k_n), k_f in [0, cap_f]
//   action = which non-empty queue the bus serves (or idle)
//   rates  = Poisson arrivals per flow, exponential bus service
//   cost   = weighted loss rate  sum_f w_f * lambda_f * [k_f == cap_f]
//
// This is the per-subsystem model whose average-cost LP (Feinberg) the
// paper solves after the split.
#pragma once

#include "ctmdp/model.hpp"
#include "linalg/matrix.hpp"
#include "split/splitter.hpp"

#include <cstddef>
#include <utility>
#include <vector>

namespace socbuf::core {

class SubsystemCtmdp {
public:
    /// `caps[f]` is the modeled buffer capacity of the subsystem's f-th
    /// flow; `rates[f]` overrides the split's first-order arrival rate
    /// (pass the split's own rates to keep them). Caps must be >= 1.
    SubsystemCtmdp(const split::Subsystem& subsystem,
                   std::vector<long> caps, std::vector<double> rates);

    [[nodiscard]] const ctmdp::CtmdpModel& model() const { return model_; }
    [[nodiscard]] const split::Subsystem& subsystem() const {
        return *subsystem_;
    }
    [[nodiscard]] std::size_t flow_count() const { return caps_.size(); }
    [[nodiscard]] const std::vector<long>& caps() const { return caps_; }
    [[nodiscard]] const std::vector<double>& rates() const { return rates_; }

    /// Occupancy of local flow `f` in packed state `state`.
    [[nodiscard]] long occupancy(std::size_t state, std::size_t f) const;

    /// Marginal occupancy distribution of flow `f` under a state
    /// distribution `pi` (length cap_f + 1).
    [[nodiscard]] std::vector<double> flow_marginal(
        const linalg::Vector& pi, std::size_t f) const;

    /// Long-run fraction of service effort given to each flow under the
    /// occupation measure x(s,a) (pair-indexed); the service shares behind
    /// the K-switching translation and the randomized arbiter weights.
    [[nodiscard]] std::vector<double> service_shares(
        const std::vector<double>& occupation) const;

    /// Weighted loss rate in state `state` (the model's cost rate there).
    [[nodiscard]] double loss_rate(std::size_t state) const;

private:
    [[nodiscard]] std::size_t state_count() const;
    void build();

    const split::Subsystem* subsystem_;
    std::vector<long> caps_;
    std::vector<double> rates_;
    std::vector<std::size_t> strides_;
    ctmdp::CtmdpModel model_;
    /// pair index -> served local flow (flow_count() means idle).
    std::vector<std::size_t> pair_serves_;
};

/// The per-flow inputs of one subsystem's model: caps taken from an
/// allocation (clamped to [1, model_cap]) and arrival rates, optionally
/// overridden by measured site rates (empty vector = the split's rates).
struct SubsystemRecipe {
    std::vector<long> caps;
    std::vector<double> rates;
};

[[nodiscard]] SubsystemRecipe subsystem_recipe(
    const split::SplitResult& split, std::size_t index,
    const std::vector<long>& allocation, long model_cap,
    const std::vector<double>& measured_site_rates);

/// Build subsystem `index`'s model of family `Model` (SubsystemCtmdp or
/// ModulatedSubsystemCtmdp) from its recipe. The model refers to `split`,
/// which must outlive it.
template <typename Model>
[[nodiscard]] Model build_subsystem_model(
    const split::SplitResult& split, std::size_t index,
    const std::vector<long>& allocation, long model_cap,
    const std::vector<double>& measured_site_rates = {}) {
    SubsystemRecipe recipe = subsystem_recipe(split, index, allocation,
                                              model_cap, measured_site_rates);
    return Model(split.subsystems[index], std::move(recipe.caps),
                 std::move(recipe.rates));
}

/// Build one SubsystemCtmdp per subsystem (see subsystem_recipe).
[[nodiscard]] std::vector<SubsystemCtmdp> build_subsystem_models(
    const split::SplitResult& split, const std::vector<long>& allocation,
    long model_cap, const std::vector<double>& measured_site_rates = {});

}  // namespace socbuf::core
