// Burst-aware subsystem CTMDPs: each bursty flow carries an ON/OFF
// modulation phase (a 2-state MMPP) inside the state space, so the
// stochastic model itself predicts the deep queues bursts build — the
// paper's "stochastic models of the architecture" taken one step further
// than the plain Poisson model in subsystem_model.hpp.
//
//   state  = (k_1..k_n, phase_1..phase_m)   phase only for bursty flows
//   rates  = phase flips at 1/on_time, 1/off_time; arrivals at the burst
//            peak while ON plus the flow's Poisson background; exponential
//            bus service; same loss cost as the Poisson model.
//
// The engine can be switched between the two model families
// (SizingOptions::use_modulated_models); bench_modulated_models measures
// what the richer model buys.
#pragma once

#include "ctmdp/model.hpp"
#include "linalg/matrix.hpp"
#include "split/splitter.hpp"

#include <cstddef>
#include <vector>

namespace socbuf::core {

class ModulatedSubsystemCtmdp {
public:
    /// `caps[f]`: modeled buffer capacity of the subsystem's f-th flow
    /// (>= 1). `rates[f]`: long-run arrival rate override (the burst
    /// structure is taken from the subsystem's flows; the burst's long-run
    /// share of the override keeps the overall rate consistent).
    ModulatedSubsystemCtmdp(const split::Subsystem& subsystem,
                            std::vector<long> caps,
                            std::vector<double> rates);

    [[nodiscard]] const ctmdp::CtmdpModel& model() const { return model_; }
    [[nodiscard]] const split::Subsystem& subsystem() const {
        return *subsystem_;
    }
    [[nodiscard]] std::size_t flow_count() const { return caps_.size(); }
    [[nodiscard]] const std::vector<long>& caps() const { return caps_; }

    /// Number of modulated (bursty) flows — each contributes one phase bit.
    [[nodiscard]] std::size_t modulated_flow_count() const {
        return phase_index_of_flow_count_;
    }

    /// Occupancy of local flow `f` in packed state `state`.
    [[nodiscard]] long occupancy(std::size_t state, std::size_t f) const;

    /// Whether bursty flow `f` is in its ON phase in `state` (flows
    /// without modulation are always "ON" at their mean rate).
    [[nodiscard]] bool phase_on(std::size_t state, std::size_t f) const;

    /// Marginal occupancy distribution of flow `f` under `pi`.
    [[nodiscard]] std::vector<double> flow_marginal(
        const linalg::Vector& pi, std::size_t f) const;

    /// Long-run service shares from an occupation measure (pair-indexed).
    [[nodiscard]] std::vector<double> service_shares(
        const std::vector<double>& occupation) const;

private:
    void build();
    [[nodiscard]] std::size_t state_count() const;
    [[nodiscard]] double arrival_rate_in_state(std::size_t state,
                                               std::size_t f) const;

    const split::Subsystem* subsystem_;
    std::vector<long> caps_;
    std::vector<double> mean_rates_;
    // Per flow: Poisson background rate and burst peak rate (0 if smooth).
    std::vector<double> background_rate_;
    std::vector<double> peak_rate_;
    std::vector<double> on_rate_;   // 1 / on_time  (phase leaves ON)
    std::vector<double> off_rate_;  // 1 / off_time (phase leaves OFF)
    std::vector<std::size_t> occ_stride_;
    std::vector<std::size_t> phase_stride_;  // 0 for unmodulated flows
    std::size_t phase_index_of_flow_count_ = 0;
    ctmdp::CtmdpModel model_;
    /// pair index -> served local flow (flow_count() means idle).
    std::vector<std::size_t> pair_serves_;
};

}  // namespace socbuf::core
