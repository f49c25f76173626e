// Linear program in equality form: minimise c.x subject to Ax = b, x >= 0.
// The occupation-measure LPs socbuf builds have exactly this shape (balance
// rows and one normalization row over non-negative occupation measures);
// an inequality is written with an explicit slack variable.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace socbuf::lp {

/// One equality row: sum(coeff_i * x_{var_i}) = rhs.
struct Constraint {
    std::vector<std::pair<std::size_t, double>> terms;
    double rhs = 0.0;
};

/// Builder for an equality-form LP over non-negative variables.
class LinearProgram {
public:
    /// Add a variable with the given objective coefficient; returns its id.
    std::size_t add_variable(double objective_coeff = 0.0);

    /// Add an equality row; term variable ids must already exist.
    /// Duplicate variable ids inside one row are summed.
    std::size_t add_constraint(Constraint c);

    [[nodiscard]] std::size_t variable_count() const { return obj_.size(); }
    [[nodiscard]] std::size_t constraint_count() const {
        return constraints_.size();
    }
    [[nodiscard]] double objective_coeff(std::size_t var) const;
    [[nodiscard]] const Constraint& constraint(std::size_t i) const;

    /// Objective value of a candidate point (no feasibility check).
    [[nodiscard]] double objective_value(const std::vector<double>& x) const;

    /// Largest violation of any row or of the x >= 0 domain by `x`.
    [[nodiscard]] double max_violation(const std::vector<double>& x) const;

private:
    std::vector<double> obj_;
    std::vector<Constraint> constraints_;
};

}  // namespace socbuf::lp
