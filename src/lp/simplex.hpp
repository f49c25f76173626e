// Two-phase primal simplex on a dense tableau, for equality-form LPs
// (minimise c.x subject to Ax = b, x >= 0; see lp/problem.hpp).
//
// Scope: the occupation-measure LPs socbuf generates (hundreds to a few
// thousand rows/columns, many redundant equality rows from the CTMC balance
// equations); its one caller is ctmdp::solve_average_cost_lp. Design
// choices that matter for those inputs:
//   * phase 1 with one explicit artificial per row, so redundant balance
//     rows are detected and neutralized rather than crashing a basis
//     factorization;
//   * Dantzig pricing with an automatic switch to Bland's rule after a
//     stall, so degenerate occupation-measure polytopes cannot cycle;
//   * a tiny rhs perturbation that breaks the balance rows' ties;
//   * fixed, named tolerances (see simplex.cpp).
#pragma once

#include "lp/problem.hpp"

#include <cstddef>
#include <vector>

namespace socbuf::lp {

enum class SolveStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

[[nodiscard]] const char* to_string(SolveStatus status);

struct Solution {
    SolveStatus status = SolveStatus::kIterationLimit;
    std::vector<double> x;        // structural variables only
    double objective = 0.0;       // c.x at the returned point
    std::size_t iterations = 0;   // total pivots across both phases
    double max_violation = 0.0;   // feasibility check of the returned point
};

/// Solve `lp` with the two-phase primal simplex method.
[[nodiscard]] Solution solve(const LinearProgram& lp);

}  // namespace socbuf::lp
