// Translate a linear subsystem (one bus + its buffer sites) into a CTMDP:
//   state  = occupancy vector (k_1..k_n), k_f in [0, cap_f], followed —
//            when the model is modulated — by one ON/OFF phase digit per
//            bursty flow
//   action = which non-empty queue the bus serves (or idle)
//   rates  = Poisson arrivals per flow, exponential bus service; a
//            modulated bursty flow is a 2-state MMPP: its burst peak
//            arrives on top of the Poisson background while ON, and the
//            phase flips at 1/on_time and 1/off_time
//   cost   = weighted loss rate  sum_f w_f * lambda_f(state) * [k_f == cap_f]
//
// This is the per-subsystem model whose average-cost LP (Feinberg) the
// paper solves after the split. Without modulation no flow is bursty, no
// state has a phase digit, and the model is the plain Poisson one; with
// it the model itself predicts the deep queues bursts build
// (SizingOptions::use_modulated_models; bench_modulated_models measures
// what that buys).
#pragma once

#include "ctmdp/model.hpp"
#include "linalg/matrix.hpp"
#include "split/splitter.hpp"

#include <cstddef>
#include <vector>

namespace socbuf::core {

class SubsystemCtmdp {
public:
    /// `caps[f]` is the modeled buffer capacity of the subsystem's f-th
    /// flow; `rates[f]` overrides its long-run arrival rate (pass the
    /// split's own rates to keep them). Caps must be >= 1. With
    /// `modulated`, each bursty flow of the subsystem gets a phase digit,
    /// and its burst keeps its long-run share of the override.
    SubsystemCtmdp(const split::Subsystem& subsystem, std::vector<long> caps,
                   std::vector<double> rates, bool modulated = false);

    [[nodiscard]] const ctmdp::CtmdpModel& model() const { return model_; }
    [[nodiscard]] const split::Subsystem& subsystem() const {
        return *subsystem_;
    }
    [[nodiscard]] std::size_t flow_count() const { return caps_.size(); }
    [[nodiscard]] const std::vector<long>& caps() const { return caps_; }

    /// Number of flows with a phase digit (0 unless modulated).
    [[nodiscard]] std::size_t modulated_flow_count() const {
        return modulated_flows_;
    }

    /// Occupancy of local flow `f` in packed state `state`.
    [[nodiscard]] long occupancy(std::size_t state, std::size_t f) const;

    /// Whether flow `f` is in its ON phase in `state` (a flow without a
    /// phase digit is always "ON" at its mean rate).
    [[nodiscard]] bool phase_on(std::size_t state, std::size_t f) const;

    /// Marginal occupancy distribution of flow `f` under a state
    /// distribution `pi` (length cap_f + 1).
    [[nodiscard]] std::vector<double> flow_marginal(
        const linalg::Vector& pi, std::size_t f) const;

    /// Long-run fraction of service effort given to each flow under the
    /// occupation measure x(s,a) (pair-indexed). The engine does not read
    /// it: the simulator arbitrates round-robin, so the policy reaches a
    /// run only through the buffer sizes. pipebench's traced replay calls
    /// it once per solve.
    [[nodiscard]] std::vector<double> service_shares(
        const std::vector<double>& occupation) const;

    /// Weighted loss rate in state `state` (the model's cost rate there;
    /// under modulation it depends on the phases).
    [[nodiscard]] double loss_rate(std::size_t state) const;

private:
    [[nodiscard]] double arrival_rate(std::size_t state, std::size_t f) const;
    void build(std::size_t states);

    const split::Subsystem* subsystem_;
    std::vector<long> caps_;
    // Per flow: the Poisson background rate and the burst peak added
    // while ON (0 without a phase digit).
    std::vector<double> background_rate_;
    std::vector<double> peak_rate_;
    std::vector<std::size_t> strides_;
    std::vector<std::size_t> phase_strides_;  // 0: no phase digit
    std::size_t modulated_flows_ = 0;
    ctmdp::CtmdpModel model_;
    /// pair index -> served local flow (flow_count() means idle).
    std::vector<std::size_t> pair_serves_;
};

/// Build subsystem `index`'s model: caps taken from `allocation` (clamped
/// to [1, model_cap]) and arrival rates optionally overridden by measured
/// site rates (empty vector = the split's rates). The model refers to
/// `split`, which must outlive it.
[[nodiscard]] SubsystemCtmdp build_subsystem_model(
    const split::SplitResult& split, std::size_t index,
    const std::vector<long>& allocation, long model_cap,
    const std::vector<double>& measured_site_rates = {},
    bool modulated = false);

/// Build one Poisson (unmodulated) model per subsystem (see
/// build_subsystem_model).
[[nodiscard]] std::vector<SubsystemCtmdp> build_subsystem_models(
    const split::SplitResult& split, const std::vector<long>& allocation,
    long model_cap, const std::vector<double>& measured_site_rates = {});

}  // namespace socbuf::core
