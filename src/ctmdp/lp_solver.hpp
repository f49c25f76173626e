// The LP formulation of constrained average-cost CTMDPs over occupation
// measures — the solution method of Feinberg (2002) that the paper applies
// to each (linear) bus subsystem.
//
//   minimize    sum_{s,a} c(s,a) x(s,a)
//   subject to  sum_{s,a} q(s'|s,a) x(s,a) = 0           for every s'
//               sum_{s,a} x(s,a) = 1
//               sum_{s,a} c_k(s,a) x(s,a) <= b_k         for every side
//                                                         constraint k
//               x >= 0
//
// x(s,a) is the long-run fraction of time spent in state s while action a
// is in force; the optimal stationary (possibly randomized) policy is
// phi(a|s) = x(s,a) / sum_a' x(s,a').
#pragma once

#include "ctmdp/model.hpp"
#include "ctmdp/policy.hpp"
#include "lp/simplex.hpp"

#include <cstddef>
#include <vector>

namespace socbuf::ctmdp {

/// One side constraint: long-run average of extra cost `cost_index`
/// must not exceed `bound`.
struct CostBound {
    std::size_t cost_index = 0;
    double bound = 0.0;
};

struct LpSolveResult {
    lp::SolveStatus status = lp::SolveStatus::kIterationLimit;
    double average_cost = 0.0;
    /// x(s,a) keyed by the model's flat pair index.
    std::vector<double> occupation;
    /// pi(s) = sum_a x(s,a).
    std::vector<double> state_probability;
    RandomizedPolicy policy;
    std::size_t simplex_iterations = 0;
    /// Long-run averages of each extra cost under the returned measure.
    std::vector<double> extra_cost_values;
};

struct LpSolverOptions {
    lp::SimplexOptions simplex;
    /// States with pi(s) below this are given a uniform action
    /// distribution (they are never visited under the optimal measure).
    double unvisited_state_tolerance = 1e-12;
};

/// Solve the constrained average-cost problem. The model must have states
/// and should be unichain under every stationary policy (true for the
/// queueing models socbuf builds, which always allow draining to empty).
[[nodiscard]] LpSolveResult solve_average_cost_lp(
    const CtmdpModel& model, const std::vector<CostBound>& bounds = {},
    const LpSolverOptions& options = {});

}  // namespace socbuf::ctmdp
