#include "core/joint.hpp"

#include "lp/simplex.hpp"
#include "util/contracts.hpp"
#include "util/log.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace socbuf::core {

namespace {

/// Total occupancy sum_f k_f of `state`, summed in flow order.
double state_occupancy(const SubsystemCtmdp& sub, std::size_t state) {
    double occ = 0.0;
    for (std::size_t f = 0; f < sub.flow_count(); ++f)
        occ += static_cast<double>(sub.occupancy(state, f));
    return occ;
}

/// E[occupancy] under occupation measure `x`:
/// sum_p occ(state(p)) * max(x_p, 0), in pair order.
double expected_occupancy(const SubsystemCtmdp& sub,
                          const std::vector<double>& x) {
    const auto& pair_offset = sub.model().pair_offsets();
    double total = 0.0;
    for (std::size_t s = 0; s + 1 < pair_offset.size(); ++s) {
        const double occ = state_occupancy(sub, s);
        for (std::size_t p = pair_offset[s]; p < pair_offset[s + 1]; ++p)
            total += occ * std::max(x[p], 0.0);
    }
    return total;
}

/// Solve one subsystem for objective loss + rho * occupancy.
ctmdp::LpSolveResult solve_priced(const SubsystemCtmdp& sub, double rho) {
    const auto& base = sub.model();
    if (rho == 0.0) return ctmdp::solve_average_cost_lp(base);
    // Rebuild the model with the priced cost; the pairs line up.
    ctmdp::CtmdpBuilder priced(base.state_count());
    const auto& pair_offset = base.pair_offsets();
    const auto& trans_offset = base.transition_offsets();
    for (std::size_t s = 0; s < base.state_count(); ++s) {
        const double occ = state_occupancy(sub, s);
        for (std::size_t p = pair_offset[s]; p < pair_offset[s + 1]; ++p) {
            priced.add_action(s, {}, base.costs()[p] + rho * occ);
            for (std::size_t k = trans_offset[p]; k < trans_offset[p + 1];
                 ++k)
                priced.add_transition(base.targets()[k], base.rates()[k]);
        }
    }
    return ctmdp::solve_average_cost_lp(std::move(priced).freeze());
}

/// Every subsystem solved at price `rho` and summed; each part reports
/// the pure loss component as its average cost, not the priced objective.
JointSolveResult solve_all_priced(const std::vector<SubsystemCtmdp>& models,
                                  double rho) {
    JointSolveResult out;
    out.occupancy_price = rho;
    for (const auto& sub : models) {
        ctmdp::LpSolveResult r = solve_priced(sub, rho);
        if (r.status != lp::SolveStatus::kOptimal) {
            JointSolveResult failed;
            failed.occupancy_price = rho;
            return failed;
        }
        const double occupancy = expected_occupancy(sub, r.occupation);
        if (rho != 0.0) r.average_cost -= rho * occupancy;
        out.total_loss_rate += r.average_cost;
        out.total_expected_occupancy += occupancy;
        out.simplex_iterations += r.simplex_iterations;
        out.per_subsystem.push_back(std::move(r));
    }
    out.solved = true;
    return out;
}

}  // namespace

JointSolveResult solve_unconstrained(
    const std::vector<SubsystemCtmdp>& models) {
    SOCBUF_REQUIRE_MSG(!models.empty(), "no subsystems to solve");
    return solve_all_priced(models, 0.0);
}

JointSolveResult solve_joint_lp(const std::vector<SubsystemCtmdp>& models,
                                double occupancy_budget) {
    SOCBUF_REQUIRE_MSG(!models.empty(), "no subsystems to solve");
    SOCBUF_REQUIRE_MSG(occupancy_budget > 0.0,
                       "occupancy budget must be positive");

    lp::LinearProgram program;
    program.set_sense(lp::Sense::kMinimize);
    std::vector<std::size_t> var_offset(models.size(), 0);

    // Variables: all subsystems' occupation measures, stacked.
    for (std::size_t k = 0; k < models.size(); ++k) {
        const auto& m = models[k].model();
        var_offset[k] = program.variable_count();
        for (std::size_t p = 0; p < m.pair_count(); ++p)
            program.add_variable(m.costs()[p],
                                 "x" + std::to_string(k) + "_" +
                                     std::to_string(p));
    }

    // Block constraints per subsystem: balance (one row dropped) and
    // normalization.
    for (std::size_t k = 0; k < models.size(); ++k) {
        const auto& m = models[k].model();
        const auto& pair_offset = m.pair_offsets();
        std::vector<lp::Constraint> balance(m.state_count());
        for (std::size_t s = 0; s < m.state_count(); ++s) {
            for (std::size_t p = pair_offset[s]; p < pair_offset[s + 1];
                 ++p) {
                double exit = 0.0;
                m.for_each_jump(s, p, [&](std::size_t target, double rate) {
                    balance[target].terms.emplace_back(var_offset[k] + p,
                                                       rate);
                    exit += rate;
                });
                if (exit > 0.0)
                    balance[s].terms.emplace_back(var_offset[k] + p, -exit);
            }
        }
        for (std::size_t s = 1; s < m.state_count(); ++s) {
            balance[s].relation = lp::Relation::kEqual;
            balance[s].rhs = 0.0;
            program.add_constraint(std::move(balance[s]));
        }
        lp::Constraint norm;
        norm.relation = lp::Relation::kEqual;
        norm.rhs = 1.0;
        for (std::size_t p = 0; p < m.pair_count(); ++p)
            norm.terms.emplace_back(var_offset[k] + p, 1.0);
        program.add_constraint(std::move(norm));
    }

    // The single coupling row that makes this a *joint* solve.
    {
        lp::Constraint budget;
        budget.relation = lp::Relation::kLessEqual;
        budget.rhs = occupancy_budget;
        budget.name = "occupancy_budget";
        for (std::size_t k = 0; k < models.size(); ++k) {
            const auto& m = models[k].model();
            const auto& pair_offset = m.pair_offsets();
            for (std::size_t s = 0; s < m.state_count(); ++s) {
                const double occ = state_occupancy(models[k], s);
                if (occ == 0.0) continue;
                for (std::size_t p = pair_offset[s]; p < pair_offset[s + 1];
                     ++p)
                    budget.terms.emplace_back(var_offset[k] + p, occ);
            }
        }
        program.add_constraint(std::move(budget));
    }

    const lp::Solution sol = lp::solve(program);
    JointSolveResult out;
    if (sol.status != lp::SolveStatus::kOptimal) {
        util::log(util::LogLevel::kWarn, "joint LP terminated: ",
                  lp::to_string(sol.status));
        return out;
    }
    out.solved = true;
    out.simplex_iterations = sol.iterations;

    // Unpack per-subsystem results.
    for (std::size_t k = 0; k < models.size(); ++k) {
        const auto& m = models[k].model();
        ctmdp::LpSolveResult r;
        r.status = lp::SolveStatus::kOptimal;
        r.occupation.assign(sol.x.begin() + var_offset[k],
                            sol.x.begin() + var_offset[k] + m.pair_count());
        r.state_probability.assign(m.state_count(), 0.0);
        const auto& pair_offset = m.pair_offsets();
        for (std::size_t s = 0; s < m.state_count(); ++s) {
            for (std::size_t p = pair_offset[s]; p < pair_offset[s + 1];
                 ++p) {
                const double x = std::max(r.occupation[p], 0.0);
                r.state_probability[s] += x;
                r.average_cost += m.costs()[p] * x;
            }
        }
        r.policy = ctmdp::policy_of_occupation(m, r.occupation,
                                               r.state_probability);
        out.total_loss_rate += r.average_cost;
        out.total_expected_occupancy +=
            expected_occupancy(models[k], r.occupation);
        out.per_subsystem.push_back(std::move(r));
    }
    return out;
}

JointSolveResult solve_price_decomposed(
    const std::vector<SubsystemCtmdp>& models, double occupancy_budget,
    double rho_max, std::size_t bisection_steps) {
    SOCBUF_REQUIRE_MSG(!models.empty(), "no subsystems to solve");
    SOCBUF_REQUIRE_MSG(occupancy_budget > 0.0,
                       "occupancy budget must be positive");

    // Free solution first: if the budget is slack at rho = 0, we are done.
    JointSolveResult best = solve_all_priced(models, 0.0);
    if (!best.solved ||
        best.total_expected_occupancy <= occupancy_budget + 1e-9)
        return best;

    // E[occupancy](rho) is non-increasing; bisect for the budget.
    double lo = 0.0;
    double hi = rho_max;
    JointSolveResult at_hi = solve_all_priced(models, hi);
    for (std::size_t i = 0;
         i < bisection_steps && at_hi.solved &&
         at_hi.total_expected_occupancy > occupancy_budget;
         ++i) {
        hi *= 2.0;
        at_hi = solve_all_priced(models, hi);
    }
    best = at_hi;
    for (std::size_t i = 0; i < bisection_steps; ++i) {
        const double mid = 0.5 * (lo + hi);
        const JointSolveResult r = solve_all_priced(models, mid);
        if (!r.solved) break;
        if (r.total_expected_occupancy <= occupancy_budget) {
            best = r;
            hi = mid;
        } else {
            lo = mid;
        }
    }
    return best;
}

}  // namespace socbuf::core
