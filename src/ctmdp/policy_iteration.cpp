#include "ctmdp/policy_iteration.hpp"

#include "linalg/banded.hpp"
#include "linalg/lu.hpp"
#include "util/contracts.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace socbuf::ctmdp {

namespace {

/// The state whose bias is pinned to 0, h(kReferenceState) = 0.
constexpr std::size_t kReferenceState = 0;
/// An action replaces the incumbent only when it improves the greedy
/// value by more than this, so ties keep the lowest action index.
constexpr double kImprovementTolerance = 1e-10;

/// Evaluate a deterministic policy on the uniformized chain: solve
///   g + h(s) = c(s) + sum_{s'} P(s'|s) h(s'),  h(ref) = 0
/// for (g, h). Unknown vector z = [g, h(0..n-1) except ref].
struct Evaluation {
    double step_gain = 0.0;
    linalg::Vector bias;
};

/// Pair `pair` of state `s` on the uniformized chain: calls
/// visit(target, probability) for each positive-rate move to another
/// state, in model order, and returns the stay probability.
template <typename Visit>
double fold_moves(const CtmdpModel& model, std::size_t s, std::size_t pair,
                  double lambda, Visit&& visit) {
    double stay = 1.0;
    model.for_each_jump(s, pair, [&](std::size_t target, double rate) {
        const double p = rate / lambda;
        stay -= p;
        visit(target, p);
    });
    return stay;
}

Evaluation evaluate_dense(const CtmdpModel& model,
                          const DeterministicPolicy& pol, double lambda,
                          std::size_t ref) {
    const std::size_t n = model.state_count();
    // Column mapping: 0 -> g, 1.. -> h(s) for s != ref.
    std::vector<std::size_t> col_of(n, 0);
    {
        std::size_t next = 1;
        for (std::size_t s = 0; s < n; ++s)
            if (s != ref) col_of[s] = next++;
    }
    linalg::Matrix a(n, n);
    linalg::Vector b(n, 0.0);
    for (std::size_t s = 0; s < n; ++s) {
        const std::size_t pair = model.pair_index(s, pol.action(s));
        // Row: g + h(s) - sum P(s'|s) h(s') = c_step(s).
        a(s, 0) = 1.0;
        auto add_h = [&](std::size_t state, double coeff) {
            if (state == ref) return;  // h(ref) = 0
            a(s, col_of[state]) += coeff;
        };
        const double stay = fold_moves(
            model, s, pair, lambda,
            [&](std::size_t target, double p) { add_h(target, -p); });
        add_h(s, 1.0 - stay);
        b[s] = model.costs()[pair] / lambda;
    }
    const linalg::Vector z = linalg::LuDecomposition(a).solve(b);
    Evaluation ev;
    ev.step_gain = z[0];
    ev.bias.assign(n, 0.0);
    for (std::size_t s = 0; s < n; ++s)
        if (s != ref) ev.bias[s] = z[col_of[s]];
    return ev;
}

/// Structure-exploiting variant of the same evaluation. Every row of the
/// dense system reads g + h(s) - sum P(s'|s) h(s') = c(s)/lambda with
/// h(ref) = 0; dropping the ref row and eliminating the gain column by a
/// bordered block solve leaves a banded (n-1)x(n-1) system B~ whose
/// bandwidth is at most the model's:
///   B~ u = b~,  B~ v = 1  =>  h = u - g v,
///   g = (b_ref - H_ref . u) / (1 - H_ref . v).
/// One banded LU factorization serves both right-hand sides, so a policy
/// update costs O(n.bw^2) instead of the dense O(n^3).
Evaluation evaluate_banded(const CtmdpModel& model,
                           const DeterministicPolicy& pol, double lambda,
                           std::size_t ref, std::size_t bandwidth) {
    const std::size_t n = model.state_count();
    const std::size_t m = n - 1;
    // Compact index over states != ref.
    const auto compact = [ref](std::size_t s) { return s < ref ? s : s - 1; };
    linalg::BandedMatrix bt(m, bandwidth, bandwidth);
    linalg::Vector b(m, 0.0);
    linalg::Vector ref_row(m, 0.0);  // H(ref, .) over compact columns
    double b_ref = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
        const std::size_t pair = model.pair_index(s, pol.action(s));
        const bool is_ref = (s == ref);
        auto add_h = [&](std::size_t state, double coeff) {
            if (state == ref) return;  // h(ref) = 0
            if (is_ref)
                ref_row[compact(state)] += coeff;
            else
                bt.at(compact(s), compact(state)) += coeff;
        };
        const double stay = fold_moves(
            model, s, pair, lambda,
            [&](std::size_t target, double p) { add_h(target, -p); });
        add_h(s, 1.0 - stay);
        const double step_cost = model.costs()[pair] / lambda;
        if (is_ref)
            b_ref = step_cost;
        else
            b[compact(s)] = step_cost;
    }
    const linalg::BandedLu lu(bt);
    const linalg::Vector u = lu.solve(b);
    const linalg::Vector v = lu.solve(linalg::Vector(m, 1.0));
    double num = b_ref;
    double den = 1.0;
    for (std::size_t j = 0; j < m; ++j) {
        num -= ref_row[j] * u[j];
        den -= ref_row[j] * v[j];
    }
    if (std::fabs(den) < 1e-12)
        throw util::NumericalError(
            "banded policy evaluation: bordered system is singular "
            "(model may not be unichain under this policy)");
    const double g = num / den;
    Evaluation ev;
    ev.step_gain = g;
    ev.bias.assign(n, 0.0);
    for (std::size_t s = 0; s < n; ++s)
        if (s != ref) ev.bias[s] = u[compact(s)] - g * v[compact(s)];
    return ev;
}

/// Deterministic gate: the banded path has to amortize ~3 banded solves'
/// worth of band arithmetic against one dense O(n^3/3) factorization, and
/// tiny models are better off dense (and keep their historical bits).
bool use_banded(const PiOptions& options, std::size_t n, std::size_t bw) {
    return options.banded_evaluation && n >= 40 &&
           3 * bw * (2 * bw + 1) < n * n;
}

/// The banded LU does not pivot. When the policy drifts away from the
/// reference state, so that ref carries almost no stationary mass, its
/// last pivots underflow and the factorization reports a singular band;
/// the dense LU's partial pivoting still solves that system, so it takes
/// over.
Evaluation evaluate(const CtmdpModel& model, const DeterministicPolicy& pol,
                    double lambda, std::size_t ref, bool banded,
                    std::size_t bw) {
    if (banded) {
        try {
            return evaluate_banded(model, pol, lambda, ref, bw);
        } catch (const util::NumericalError&) {
        }
    }
    return evaluate_dense(model, pol, lambda, ref);
}

}  // namespace

PiResult policy_iteration(const CtmdpModel& model, const PiOptions& options) {
    if (model.state_count() == 0) throw util::ModelError("CTMDP has no states");
    const double lambda =
        std::max(model.max_exit_rate(), 1e-12) * 1.05 + 1e-9;
    const std::size_t n = model.state_count();
    const std::size_t bw = model.bandwidth();
    const bool banded = use_banded(options, n, bw);

    // Start from the all-zeros policy.
    DeterministicPolicy policy(std::vector<std::size_t>(n, 0));
    const auto& pair_offset = model.pair_offsets();
    PiResult out;
    for (std::size_t update = 0; update < options.max_policy_updates;
         ++update) {
        const Evaluation ev = evaluate(model, policy, lambda,
                                       kReferenceState, banded, bw);
        // Greedy improvement against the evaluated bias.
        std::vector<std::size_t> next(n, 0);
        for (std::size_t s = 0; s < n; ++s) {
            double best = std::numeric_limits<double>::infinity();
            std::size_t best_a = policy.action(s);
            const std::size_t p0 = pair_offset[s];
            for (std::size_t a = 0; a < pair_offset[s + 1] - p0; ++a) {
                double value = model.costs()[p0 + a] / lambda;
                const double stay = fold_moves(
                    model, s, p0 + a, lambda,
                    [&](std::size_t target, double p) {
                        value += p * ev.bias[target];
                    });
                value += stay * ev.bias[s];
                if (value < best - kImprovementTolerance) {
                    best = value;
                    best_a = a;
                }
            }
            next[s] = best_a;
        }
        out.policy_updates = update + 1;
        DeterministicPolicy next_policy(std::move(next));
        if (next_policy == policy) {
            out.gain = ev.step_gain * lambda;
            out.bias = ev.bias;
            out.policy = policy;
            out.converged = true;
            return out;
        }
        policy = std::move(next_policy);
    }
    const Evaluation ev = evaluate(model, policy, lambda,
                                   kReferenceState, banded, bw);
    out.gain = ev.step_gain * lambda;
    out.bias = ev.bias;
    out.policy = policy;
    out.converged = false;
    return out;
}

}  // namespace socbuf::ctmdp
