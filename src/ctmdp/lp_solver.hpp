// The LP formulation of average-cost CTMDPs over occupation measures — the
// solution method of Feinberg (2002) that the paper applies to each
// (linear) bus subsystem.
//
//   minimize    sum_{s,a} c(s,a) x(s,a)
//   subject to  sum_{s,a} q(s'|s,a) x(s,a) = 0           for every s'
//               sum_{s,a} x(s,a) = 1
//               x >= 0
//
// x(s,a) is the long-run fraction of time spent in state s while action a
// is in force; the optimal stationary policy is
// phi(a|s) = x(s,a) / sum_a' x(s,a').
#pragma once

#include "ctmdp/model.hpp"
#include "ctmdp/policy.hpp"
#include "lp/simplex.hpp"

#include <cstddef>
#include <vector>

namespace socbuf::ctmdp {

struct LpSolveResult {
    lp::SolveStatus status = lp::SolveStatus::kIterationLimit;
    double average_cost = 0.0;
    /// x(s,a) keyed by the model's flat pair index.
    std::vector<double> occupation;
    /// pi(s) = sum_a x(s,a).
    std::vector<double> state_probability;
    RandomizedPolicy policy;
    std::size_t simplex_iterations = 0;
};

/// The stationary policy an occupation measure induces on `model`:
/// phi(a|s) = max(x(s,a), 0) / pi(s), uniform in unvisited states
/// (pi(s) <= 1e-12; any choice there is gain-optimal), each state
/// renormalized against round-off. `state_probability[s]` must be the sum over s's pairs of
/// max(x(s,a), 0), in pair order.
[[nodiscard]] RandomizedPolicy policy_of_occupation(
    const CtmdpModel& model, const std::vector<double>& occupation,
    const std::vector<double>& state_probability);

/// Solve the average-cost problem. The model must have states and should
/// be unichain under every stationary policy (true for the queueing models
/// socbuf builds, which always allow draining to empty).
[[nodiscard]] LpSolveResult solve_average_cost_lp(const CtmdpModel& model);

}  // namespace socbuf::ctmdp
