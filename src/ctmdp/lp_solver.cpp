#include "ctmdp/lp_solver.hpp"

#include "util/contracts.hpp"
#include "util/log.hpp"

#include <algorithm>

namespace socbuf::ctmdp {

namespace {

/// States with at most this mass pi(s) count as unvisited.
constexpr double kUnvisitedStateMass = 1e-12;

}  // namespace

RandomizedPolicy policy_of_occupation(
    const CtmdpModel& model, const std::vector<double>& occupation,
    const std::vector<double>& state_probability) {
    const auto& pair_offset = model.pair_offsets();
    std::vector<std::vector<double>> probs(model.state_count());
    for (std::size_t s = 0; s < probs.size(); ++s) {
        const std::size_t p0 = pair_offset[s];
        const std::size_t n_a = pair_offset[s + 1] - p0;
        probs[s].assign(n_a, 0.0);
        const double mass = state_probability[s];
        if (mass > kUnvisitedStateMass) {
            for (std::size_t a = 0; a < n_a; ++a)
                probs[s][a] = std::max(occupation[p0 + a], 0.0) / mass;
        } else {
            // Unvisited: pick uniform for determinism.
            for (std::size_t a = 0; a < n_a; ++a)
                probs[s][a] = 1.0 / static_cast<double>(n_a);
        }
        // Renormalize against round-off.
        double total = 0.0;
        for (double p : probs[s]) total += p;
        for (double& p : probs[s]) p /= total;
    }
    return RandomizedPolicy(probs);
}

LpSolveResult solve_average_cost_lp(const CtmdpModel& model) {
    if (model.state_count() == 0) throw util::ModelError("CTMDP has no states");

    const std::size_t n_states = model.state_count();
    const std::size_t n_pairs = model.pair_count();
    const auto& pair_offset = model.pair_offsets();

    lp::LinearProgram program;
    for (std::size_t p = 0; p < n_pairs; ++p)
        program.add_variable(model.costs()[p]);

    // Balance constraints: for each state s', sum_{s,a} q(s'|s,a) x(s,a) = 0.
    // The rows sum to zero over s', so one (state 0's) is redundant and
    // dropped; phase 1 of the simplex would otherwise carry a permanently
    // degenerate artificial for it.
    std::vector<lp::Constraint> balance(n_states);
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
        norm.rhs = 1.0;
        for (std::size_t p = 0; p < n_pairs; ++p)
            norm.terms.emplace_back(p, 1.0);
        program.add_constraint(std::move(norm));
    }

    const lp::Solution sol = lp::solve(program);

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

    out.policy = policy_of_occupation(model, out.occupation,
                                      out.state_probability);
    return out;
}

}  // namespace socbuf::ctmdp
