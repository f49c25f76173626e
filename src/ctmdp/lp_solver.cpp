#include "ctmdp/lp_solver.hpp"

#include "util/contracts.hpp"
#include "util/log.hpp"

#include <cmath>

namespace socbuf::ctmdp {

LpSolveResult solve_average_cost_lp(const CtmdpModel& model,
                                    const std::vector<CostBound>& bounds,
                                    const LpSolverOptions& options) {
    if (model.state_count() == 0) throw util::ModelError("CTMDP has no states");
    for (const auto& b : bounds)
        SOCBUF_REQUIRE_MSG(b.cost_index < model.extra_cost_count(),
                           "cost bound references unknown extra cost");

    const std::size_t n_states = model.state_count();
    const std::size_t n_pairs = model.pair_count();
    const std::size_t n_extra = model.extra_cost_count();
    const auto& pair_offset = model.pair_offsets();
    const auto& extra = model.extra_costs();

    lp::LinearProgram program;
    program.set_sense(lp::Sense::kMinimize);
    for (std::size_t p = 0; p < n_pairs; ++p)
        program.add_variable(model.costs()[p]);

    // Balance constraints: for each state s', sum_{s,a} q(s'|s,a) x(s,a) = 0.
    // The rows sum to zero over s', so one (state 0's) is redundant and
    // dropped; phase 1 of the simplex would otherwise carry a permanently
    // degenerate artificial for it.
    std::vector<lp::Constraint> balance(n_states);
    for (std::size_t sprime = 0; sprime < n_states; ++sprime) {
        balance[sprime].relation = lp::Relation::kEqual;
        balance[sprime].rhs = 0.0;
    }
    for (std::size_t s = 0; s < n_states; ++s) {
        for (std::size_t p = pair_offset[s]; p < pair_offset[s + 1]; ++p) {
            double exit = 0.0;
            model.for_each_jump(s, p, [&](std::size_t target, double rate) {
                balance[target].terms.emplace_back(p, rate);
                exit += rate;
            });
            if (exit > 0.0) balance[s].terms.emplace_back(p, -exit);
        }
    }
    for (std::size_t sprime = 1; sprime < n_states; ++sprime)
        program.add_constraint(std::move(balance[sprime]));

    // Normalization.
    {
        lp::Constraint norm;
        norm.relation = lp::Relation::kEqual;
        norm.rhs = 1.0;
        norm.name = "normalization";
        for (std::size_t p = 0; p < n_pairs; ++p)
            norm.terms.emplace_back(p, 1.0);
        program.add_constraint(std::move(norm));
    }

    // Side constraints on extra cost averages.
    for (const auto& b : bounds) {
        lp::Constraint c;
        c.relation = lp::Relation::kLessEqual;
        c.rhs = b.bound;
        c.name = "cost_bound(" + std::to_string(b.cost_index) + ")";
        for (std::size_t p = 0; p < n_pairs; ++p) {
            const double coeff = extra[p * n_extra + b.cost_index];
            if (coeff != 0.0) c.terms.emplace_back(p, coeff);
        }
        program.add_constraint(std::move(c));
    }

    const lp::Solution sol = lp::solve(program, options.simplex);

    LpSolveResult out;
    out.status = sol.status;
    out.simplex_iterations = sol.iterations;
    if (sol.status != lp::SolveStatus::kOptimal) {
        util::log(util::LogLevel::kWarn, "ctmdp LP terminated: ",
                  lp::to_string(sol.status));
        return out;
    }

    out.average_cost = sol.objective;
    out.occupation = sol.x;
    out.state_probability.assign(n_states, 0.0);
    for (std::size_t s = 0; s < n_states; ++s)
        for (std::size_t p = pair_offset[s]; p < pair_offset[s + 1]; ++p)
            out.state_probability[s] += std::max(sol.x[p], 0.0);

    out.extra_cost_values.assign(n_extra, 0.0);
    for (std::size_t p = 0; p < n_pairs; ++p)
        for (std::size_t k = 0; k < n_extra; ++k)
            out.extra_cost_values[k] +=
                extra[p * n_extra + k] * std::max(sol.x[p], 0.0);

    // Policy extraction.
    std::vector<std::vector<double>> probs(n_states);
    for (std::size_t s = 0; s < n_states; ++s) {
        const std::size_t p0 = pair_offset[s];
        const std::size_t n_a = pair_offset[s + 1] - p0;
        probs[s].assign(n_a, 0.0);
        const double mass = out.state_probability[s];
        if (mass > options.unvisited_state_tolerance) {
            for (std::size_t a = 0; a < n_a; ++a)
                probs[s][a] = std::max(sol.x[p0 + a], 0.0) / mass;
        } else {
            // Unvisited under the optimal measure: any choice is
            // gain-optimal; pick uniform for determinism.
            for (std::size_t a = 0; a < n_a; ++a)
                probs[s][a] = 1.0 / static_cast<double>(n_a);
        }
        // Renormalize against round-off.
        double total = 0.0;
        for (double p : probs[s]) total += p;
        for (double& p : probs[s]) p /= total;
    }
    out.policy = RandomizedPolicy(std::move(probs));
    return out;
}

}  // namespace socbuf::ctmdp
