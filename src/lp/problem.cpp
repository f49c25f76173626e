#include "lp/problem.hpp"

#include "util/contracts.hpp"

#include <algorithm>
#include <cmath>
#include <map>

namespace socbuf::lp {

std::size_t LinearProgram::add_variable(double objective_coeff) {
    obj_.push_back(objective_coeff);
    return obj_.size() - 1;
}

std::size_t LinearProgram::add_constraint(Constraint c) {
    // Merge duplicate variable ids so downstream code sees a clean row.
    std::map<std::size_t, double> merged;
    for (const auto& [var, coeff] : c.terms) {
        SOCBUF_REQUIRE_MSG(var < obj_.size(),
                           "constraint references unknown variable");
        merged[var] += coeff;
    }
    c.terms.assign(merged.begin(), merged.end());
    constraints_.push_back(std::move(c));
    return constraints_.size() - 1;
}

double LinearProgram::objective_coeff(std::size_t var) const {
    SOCBUF_REQUIRE_MSG(var < obj_.size(), "unknown variable id");
    return obj_[var];
}

const Constraint& LinearProgram::constraint(std::size_t i) const {
    SOCBUF_REQUIRE_MSG(i < constraints_.size(), "unknown constraint id");
    return constraints_[i];
}

double LinearProgram::objective_value(const std::vector<double>& x) const {
    SOCBUF_REQUIRE_MSG(x.size() == obj_.size(), "point size mismatch");
    double acc = 0.0;
    for (std::size_t v = 0; v < obj_.size(); ++v) acc += obj_[v] * x[v];
    return acc;
}

double LinearProgram::max_violation(const std::vector<double>& x) const {
    SOCBUF_REQUIRE_MSG(x.size() == obj_.size(), "point size mismatch");
    double worst = 0.0;
    for (double v : x) worst = std::max(worst, -v);  // x >= 0
    for (const auto& c : constraints_) {
        double lhs = 0.0;
        for (const auto& [var, coeff] : c.terms) lhs += coeff * x[var];
        worst = std::max(worst, std::fabs(lhs - c.rhs));
    }
    return worst;
}

}  // namespace socbuf::lp
