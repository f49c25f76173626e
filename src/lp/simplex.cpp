#include "lp/simplex.hpp"

#include "util/contracts.hpp"
#include "util/log.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace socbuf::lp {

namespace {

// Tolerances, fixed for the occupation-measure LPs socbuf feeds in.
constexpr double kPivotTolerance = 1e-9;  // smaller entries can't pivot
constexpr double kCostTolerance = 1e-9;   // reduced costs above -tol: optimal
constexpr double kFeasibilityTolerance = 1e-7;  // phase-1 optimum cut-off
constexpr std::size_t kStallBeforeBland = 64;  // degenerate pivots
/// Wolfe-style anti-degeneracy: row i's rhs is nudged by
/// kRhsPerturbation * (i+1)/m. The CTMC balance systems are *totally*
/// degenerate (every rhs is 0 except normalization), where even
/// lexicographic/Bland pivoting wanders for millions of iterations under
/// floating point; the perturbation removes the ties outright at a
/// solution error far below kFeasibilityTolerance.
constexpr double kRhsPerturbation = 1e-10;

// Column-major tableau:
//   rows 0..m-1: constraint rows, column layout [structural | slack/surplus |
//                artificial | rhs]
//   row m      : reduced-cost row for the active phase; its rhs cell holds
//                minus the current objective value.
// Columns are stored contiguously (tab_[c * col_stride_ + r]) because the
// pivot — by far the dominant cost — is a rank-1 update that walks whole
// columns: the rewritten loop streams each column once, skips columns whose
// pivot-row entry is zero (the dense update would subtract f * 0
// everywhere), and skips rows whose elimination factor is zero, which on
// our sparse occupation-measure LPs leaves most of the tableau untouched.
// Each surviving cell computes the identical expression the row-major
// update did (factor * (pivot_entry * inv)), so results are bit-identical.
class Tableau {
public:
    explicit Tableau(const LinearProgram& lp)
        : n_struct_(lp.variable_count()) {
        build(lp);
    }

    SolveStatus run_two_phase(const LinearProgram& lp) {
        if (needs_phase1_) {
            load_phase1_objective();
            const SolveStatus s1 = iterate(/*phase1=*/true);
            if (s1 != SolveStatus::kOptimal) return s1;
            if (current_objective() > kFeasibilityTolerance)
                return SolveStatus::kInfeasible;
            expel_basic_artificials();
        }
        load_phase2_objective(lp);
        return iterate(/*phase1=*/false);
    }

    [[nodiscard]] std::vector<double> structural_solution() const {
        std::vector<double> x(n_struct_, 0.0);
        for (std::size_t r = 0; r < m_; ++r) {
            const std::size_t b = basis_[r];
            if (b < n_struct_) x[b] = rhs(r);
        }
        return x;
    }

    [[nodiscard]] std::size_t iterations() const { return iterations_; }

private:
    [[nodiscard]] double& cell(std::size_t r, std::size_t c) {
        return tab_[c * col_stride_ + r];
    }
    [[nodiscard]] double cell(std::size_t r, std::size_t c) const {
        return tab_[c * col_stride_ + r];
    }
    [[nodiscard]] double rhs(std::size_t r) const {
        return cell(r, n_total_);
    }
    [[nodiscard]] double current_objective() const {
        return -cell(m_, n_total_);
    }

    void build(const LinearProgram& lp) {
        m_ = lp.constraint_count();
        // Count auxiliary columns.
        std::size_t n_slack = 0;
        std::size_t n_art = 0;
        for (std::size_t i = 0; i < m_; ++i) {
            const auto& c = lp.constraint(i);
            const bool flip = c.rhs < 0.0;
            const Relation rel =
                !flip ? c.relation
                      : (c.relation == Relation::kLessEqual
                             ? Relation::kGreaterEqual
                             : (c.relation == Relation::kGreaterEqual
                                    ? Relation::kLessEqual
                                    : Relation::kEqual));
            if (rel != Relation::kEqual) ++n_slack;
            if (rel != Relation::kLessEqual) ++n_art;
        }
        slack_begin_ = n_struct_;
        art_begin_ = n_struct_ + n_slack;
        n_total_ = n_struct_ + n_slack + n_art;
        col_stride_ = m_ + 1;
        tab_.assign((n_total_ + 1) * col_stride_, 0.0);
        basis_.assign(m_, 0);
        is_artificial_.assign(n_total_, false);
        needs_phase1_ = n_art > 0;

        std::size_t next_slack = slack_begin_;
        std::size_t next_art = art_begin_;
        for (std::size_t i = 0; i < m_; ++i) {
            const auto& c = lp.constraint(i);
            const bool flip = c.rhs < 0.0;
            const double sign = flip ? -1.0 : 1.0;
            for (const auto& [var, coeff] : c.terms)
                cell(i, var) += sign * coeff;
            cell(i, n_total_) =
                sign * c.rhs +
                kRhsPerturbation * static_cast<double>(i + 1) /
                    static_cast<double>(m_);
            Relation rel = c.relation;
            if (flip) {
                if (rel == Relation::kLessEqual)
                    rel = Relation::kGreaterEqual;
                else if (rel == Relation::kGreaterEqual)
                    rel = Relation::kLessEqual;
            }
            switch (rel) {
                case Relation::kLessEqual:
                    cell(i, next_slack) = 1.0;
                    basis_[i] = next_slack;
                    ++next_slack;
                    break;
                case Relation::kGreaterEqual: {
                    cell(i, next_slack) = -1.0;  // surplus
                    ++next_slack;
                    cell(i, next_art) = 1.0;
                    is_artificial_[next_art] = true;
                    basis_[i] = next_art;
                    ++next_art;
                    break;
                }
                case Relation::kEqual:
                    cell(i, next_art) = 1.0;
                    is_artificial_[next_art] = true;
                    basis_[i] = next_art;
                    ++next_art;
                    break;
            }
        }
    }

    void load_phase1_objective() {
        // Minimize the sum of artificials: cost row starts as e_artificials,
        // then gets reduced against the (artificial) basis, which amounts to
        // subtracting every artificial-basic row.
        for (std::size_t c = 0; c <= n_total_; ++c) cell(m_, c) = 0.0;
        for (std::size_t c = art_begin_; c < n_total_; ++c) cell(m_, c) = 1.0;
        for (std::size_t r = 0; r < m_; ++r) {
            if (!is_artificial_[basis_[r]]) continue;
            for (std::size_t c = 0; c <= n_total_; ++c)
                cell(m_, c) -= cell(r, c);
        }
        phase1_ = true;
    }

    void load_phase2_objective(const LinearProgram& lp) {
        const double sense =
            lp.sense() == Sense::kMinimize ? 1.0 : -1.0;  // run min internally
        for (std::size_t c = 0; c <= n_total_; ++c) cell(m_, c) = 0.0;
        for (std::size_t v = 0; v < n_struct_; ++v)
            cell(m_, v) = sense * lp.objective_coeff(v);
        // Reduce against the current basis.
        for (std::size_t r = 0; r < m_; ++r) {
            const std::size_t b = basis_[r];
            const double cb = cell(m_, b);
            if (cb == 0.0) continue;
            for (std::size_t c = 0; c <= n_total_; ++c)
                cell(m_, c) -= cb * cell(r, c);
        }
        phase1_ = false;
        sense_sign_ = sense;
    }

    /// After phase 1, pivot still-basic artificials out on any eligible
    /// column; rows where that is impossible are redundant and stay with a
    /// zero-valued artificial that phase 2 will never re-enter.
    void expel_basic_artificials() {
        for (std::size_t r = 0; r < m_; ++r) {
            if (!is_artificial_[basis_[r]]) continue;
            std::size_t col = n_total_;  // sentinel: none found
            for (std::size_t c = 0; c < art_begin_; ++c) {
                if (std::fabs(cell(r, c)) > kPivotTolerance) {
                    col = c;
                    break;
                }
            }
            if (col == n_total_) continue;  // redundant row
            pivot(r, col);
        }
    }

    [[nodiscard]] bool column_eligible(std::size_t c) const {
        // Artificials may never re-enter once phase 1 ends.
        return phase1_ || !is_artificial_[c];
    }

    /// Entering column under Dantzig pricing; n_total_ if optimal.
    [[nodiscard]] std::size_t price_dantzig() const {
        std::size_t best = n_total_;
        double best_cost = -kCostTolerance;
        for (std::size_t c = 0; c < n_total_; ++c) {
            if (!column_eligible(c)) continue;
            const double rc = cell(m_, c);
            if (rc < best_cost) {
                best_cost = rc;
                best = c;
            }
        }
        return best;
    }

    /// Entering column under Bland's rule; n_total_ if optimal.
    [[nodiscard]] std::size_t price_bland() const {
        for (std::size_t c = 0; c < n_total_; ++c) {
            if (!column_eligible(c)) continue;
            if (cell(m_, c) < -kCostTolerance) return c;
        }
        return n_total_;
    }

    /// Lexicographic comparison of two candidate leaving rows: compare
    /// row/pivot element-wise. The tableau rows carry B^-1 through the
    /// artificial identity block, so this is the classic lexicographic
    /// ratio test — it provably terminates even on the massively
    /// degenerate phase-1 problems our balance equations produce (every
    /// rhs is zero except the normalization row).
    [[nodiscard]] bool lex_less(std::size_t r1, double a1, std::size_t r2,
                                double a2) const {
        for (std::size_t c = 0; c <= n_total_; ++c) {
            const double v1 = cell(r1, c) / a1;
            const double v2 = cell(r2, c) / a2;
            if (std::fabs(v1 - v2) > 1e-11) return v1 < v2;
        }
        return false;
    }

    /// Ratio test; returns m_ when the column is unbounded below.
    [[nodiscard]] std::size_t choose_leaving(std::size_t col) const {
        std::size_t best_row = m_;
        double best_ratio = std::numeric_limits<double>::infinity();
        for (std::size_t r = 0; r < m_; ++r) {
            const double a = cell(r, col);
            if (a <= kPivotTolerance) continue;
            // Round-off can push a basic value a hair below zero; a
            // negative ratio would pivot the basis into infeasibility and
            // the iteration can whipsaw forever. Clamp at zero.
            const double ratio = std::max(0.0, rhs(r)) / a;
            if (ratio < best_ratio - 1e-9) {
                best_ratio = ratio;
                best_row = r;
            } else if (ratio < best_ratio + 1e-9 && best_row != m_) {
                if (lex_less(r, a, best_row, cell(best_row, col)))
                    best_row = r;
            }
        }
        return best_row;
    }

    void pivot(std::size_t row, std::size_t col) {
        double* entering = &tab_[col * col_stride_];
        const double p = entering[row];
        SOCBUF_ASSERT(std::fabs(p) > 0.0);
        const double inv = 1.0 / p;
        // Snapshot the entering column first: its entries are the per-row
        // elimination factors, and the update below overwrites them.
        factor_buf_.assign(entering, entering + m_ + 1);
        for (std::size_t c = 0; c <= n_total_; ++c) {
            if (c == col) continue;
            double* colp = &tab_[c * col_stride_];
            const double pr = colp[row];
            // Zero pivot-row entry: the scaled pivot value is zero, so
            // every elimination in this column subtracts f * 0 — skip it
            // wholesale. This is where tableau sparsity pays off.
            if (pr == 0.0) continue;
            const double sp = pr * inv;  // scale once, like the dense path
            colp[row] = sp;
            for (std::size_t r = 0; r <= m_; ++r) {
                if (r == row) continue;
                const double f = factor_buf_[r];
                if (f == 0.0) continue;
                colp[r] -= f * sp;
            }
        }
        // The entering column becomes the unit vector e_row, exactly as
        // the row-major update left it.
        for (std::size_t r = 0; r <= m_; ++r) entering[r] = 0.0;
        entering[row] = 1.0;
        basis_[row] = col;
        ++iterations_;
    }

    SolveStatus iterate(bool phase1) {
        const std::size_t max_iter = 200 * (m_ + n_total_) + 5000;
        bool bland = false;
        std::size_t degenerate_streak = 0;
        double last_obj = current_objective();
        while (iterations_ < max_iter) {
            const std::size_t col = bland ? price_bland() : price_dantzig();
            if (col == n_total_) return SolveStatus::kOptimal;
            const std::size_t row = choose_leaving(col);
            if (row == m_) {
                // Phase 1 objective is bounded below by 0, so an unbounded
                // ray here means numerical trouble, not a real ray.
                if (phase1)
                    throw util::NumericalError(
                        "simplex: unbounded phase-1 subproblem");
                return SolveStatus::kUnbounded;
            }
            pivot(row, col);
            const double obj = current_objective();
            if (iterations_ % 10000 == 0)
                util::log(util::LogLevel::kDebug, "simplex: iter ",
                          iterations_, " phase1=", phase1, " bland=", bland,
                          " obj=", obj, " col=", col, " row=", row);
            if (obj > last_obj - 1e-12) {
                if (++degenerate_streak >= kStallBeforeBland &&
                    !bland) {
                    bland = true;
                    util::log(util::LogLevel::kDebug,
                              "simplex: switching to Bland's rule after ",
                              degenerate_streak, " degenerate pivots");
                }
            } else {
                degenerate_streak = 0;
            }
            last_obj = obj;
        }
        return SolveStatus::kIterationLimit;
    }

public:
    [[nodiscard]] double signed_objective() const {
        return sense_sign_ * current_objective();
    }

private:
    std::vector<double> tab_;
    std::vector<double> factor_buf_;  // scratch for pivot()
    std::vector<std::size_t> basis_;
    std::vector<bool> is_artificial_;
    std::size_t n_struct_ = 0;
    std::size_t slack_begin_ = 0;
    std::size_t art_begin_ = 0;
    std::size_t n_total_ = 0;
    std::size_t col_stride_ = 0;  // m_ + 1 (rows per stored column)
    std::size_t m_ = 0;
    std::size_t iterations_ = 0;
    bool needs_phase1_ = false;
    bool phase1_ = false;
    double sense_sign_ = 1.0;
};

}  // namespace

const char* to_string(SolveStatus status) {
    switch (status) {
        case SolveStatus::kOptimal: return "optimal";
        case SolveStatus::kInfeasible: return "infeasible";
        case SolveStatus::kUnbounded: return "unbounded";
        case SolveStatus::kIterationLimit: return "iteration-limit";
    }
    return "?";
}

Solution solve(const LinearProgram& lp) {
    SOCBUF_REQUIRE_MSG(lp.variable_count() > 0,
                       "cannot solve an LP with no variables");
    Tableau tableau(lp);
    Solution sol;
    sol.status = tableau.run_two_phase(lp);
    sol.iterations = tableau.iterations();
    if (sol.status == SolveStatus::kOptimal) {
        sol.x = tableau.structural_solution();
        sol.objective = lp.objective_value(sol.x);
        sol.max_violation = lp.max_violation(sol.x);
        if (sol.max_violation > 1e-5)
            util::log(util::LogLevel::kWarn,
                      "simplex: returned point violates constraints by ",
                      sol.max_violation);
    }
    return sol;
}

}  // namespace socbuf::lp
