#include "core/engine.hpp"

#include "core/subsystem_model.hpp"
#include "ctmdp/occupation.hpp"
#include "ctmdp/solve_cache.hpp"
#include "ctmdp/solver.hpp"
#include "exec/executor.hpp"
#include "util/contracts.hpp"
#include "util/log.hpp"
#include "util/numeric.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace socbuf::core {

double SizingReport::improvement() const {
    const double pre = static_cast<double>(before.total_lost());
    if (pre <= 0.0) return 0.0;
    return 1.0 - static_cast<double>(after.total_lost()) / pre;
}

BufferSizingEngine::BufferSizingEngine(SizingOptions options)
    : options_(std::move(options)) {
    SOCBUF_REQUIRE_MSG(options_.total_budget >= 1, "budget must be >= 1");
    SOCBUF_REQUIRE_MSG(options_.iterations >= 1, "need >= 1 iteration");
    SOCBUF_REQUIRE_MSG(options_.model_cap >= 1, "model cap must be >= 1");
    SOCBUF_REQUIRE_MSG(
        options_.tail_mass > 0.0 && options_.tail_mass < 1.0,
        "tail mass must be in (0,1)");
    SOCBUF_REQUIRE_MSG(options_.eval_replications >= 1,
                       "need >= 1 evaluation replication per round");
}

namespace {

/// Dispatch policy the registry applies to every subsystem solve.
ctmdp::DispatchOptions make_dispatch(const SizingOptions& options) {
    ctmdp::DispatchOptions dispatch;
    dispatch.choice = options.solver;
    dispatch.lp_pair_limit = options.lp_pair_limit;
    dispatch.pi_state_limit = options.pi_state_limit;
    // Scores need far less precision than the solver defaults.
    dispatch.solver.vi.tolerance = 1e-7;
    dispatch.solver.vi.max_iterations = 50000;
    dispatch.solver.vi.sweep = options.gauss_seidel
                                   ? ctmdp::ViSweep::kGaussSeidel
                                   : ctmdp::ViSweep::kJacobi;
    return dispatch;
}

/// What the fold keeps of one solved subsystem: the rung behind its
/// solution, its switching-state count, and per local flow the
/// K-switching score.
struct SubsystemScore {
    ctmdp::SolverKind solved_by = ctmdp::SolverKind::kLp;
    std::size_t switching_states = 0;
    std::vector<double> scores;
};

/// Score every subsystem (in parallel — the solves are independent) and
/// fold the scores, in subsystem order, into the report's K-switching
/// scores; the ordered fold keeps the report bit-identical for any
/// executor width. Each task builds its subsystem's model (with phase
/// digits when options.use_modulated_models), solves it and reduces it to
/// its SubsystemScore before the model and its solution are dropped, so
/// at most one model per running task is alive — a batch's largest buses
/// never sit in memory side by side waiting for the fold.
void score_subsystems(const split::SplitResult& split,
                      const Allocation& alloc,
                      const std::vector<double>& rates,
                      const SizingOptions& options,
                      const ctmdp::SolverRegistry& registry,
                      exec::Executor& executor,
                      ctmdp::SolveCache* cache,
                      const std::vector<double>& measured_occ,
                      SizingReport& report) {
    ctmdp::DispatchOptions dispatch = make_dispatch(options);
    // With gauss_seidel off, large models fan their Jacobi sweeps over
    // the same executor the per-subsystem solves run on (nested fan-outs;
    // the executor's caller-participation rule makes that
    // deadlock-free). Schedule-only: bit-identical for any width. The
    // Gauss–Seidel sweep and the stationary pass run serially.
    dispatch.solver.vi.executor = &executor;
    const auto score_one = [&](std::size_t i) {
        const SubsystemCtmdp sub_model =
            build_subsystem_model(split, i, alloc, options.model_cap, rates,
                                  options.use_modulated_models);
        const ctmdp::SubsystemSolution sol =
            cache != nullptr
                ? cache->solve(registry, sub_model.model(), dispatch)
                : registry.solve(sub_model.model(), dispatch);
        SubsystemScore out;
        out.solved_by = sol.solved_by;
        out.switching_states = sol.switching_states;
        const auto& flows = sub_model.subsystem().flows;
        for (std::size_t f = 0; f < flows.size(); ++f) {
            const auto marginal = sub_model.flow_marginal(sol.stationary, f);
            const double q = static_cast<double>(
                ctmdp::marginal_quantile(marginal, options.tail_mass));
            const double mean = ctmdp::marginal_mean(marginal);
            // Saturation correction: occupancy pinned at the modeled cap
            // means the true requirement exceeds the model.
            const double at_cap = marginal.back();
            out.scores.push_back(
                q + mean +
                options.saturation_boost * at_cap *
                    static_cast<double>(sub_model.caps()[f]) +
                options.measured_occupancy_weight *
                    measured_occ[flows[f].site]);
        }
        return out;
    };
    const auto scored = executor.map(split.subsystems.size(), score_one);
    for (std::size_t m = 0; m < scored.size(); ++m) {
        const SubsystemScore& sub = scored[m];
        // Tally the algorithm behind every solution this run consumed —
        // whether it was solved here or served by a shared cache — so the
        // report's counts are deterministic for any executor width and
        // batch composition.
        switch (sub.solved_by) {
            case ctmdp::SolverKind::kLp: ++report.lp_solves; break;
            case ctmdp::SolverKind::kValueIteration:
                ++report.vi_solves;
                break;
            case ctmdp::SolverKind::kPolicyIteration:
                ++report.pi_solves;
                break;
        }
        report.switching_states += sub.switching_states;
        const auto& flows = split.subsystems[m].flows;
        for (std::size_t f = 0; f < flows.size(); ++f)
            report.site_scores[flows[f].site] = std::max(sub.scores[f], 1e-6);
    }
}

/// Everything one round's evaluation feeds back into the loop.
struct RoundEval {
    double total_lost = 0.0;
    double weighted_loss = 0.0;
    std::vector<double> site_observed_rate;
    std::vector<double> site_mean_occupancy;
    /// Replication 0 in full (seed options.sim.seed): what the report
    /// stores as `before` / `after` for this allocation.
    sim::SimResult first;
};

/// Evaluate `alloc` for one round: fan all eval_replications independent
/// sims (seed + r) across the executor in ONE map — nested fan-outs are
/// safe, see the executor's nesting rule — and fold their per-site
/// statistics in replication order, so the result is bit-identical for
/// any worker count (one replication runs inline and reproduces the
/// legacy single-sim round bit for bit: every fold divides by 1.0, which
/// is exact). Replication 0 is kept whole in RoundEval::first.
RoundEval evaluate_round(const arch::TestSystem& system,
                         const Allocation& alloc,
                         const SizingOptions& options,
                         const std::vector<double>& flow_weights,
                         exec::Executor& executor) {
    RoundEval out;
    const std::size_t reps = options.eval_replications;
    auto evals = executor.map(reps, [&](std::size_t r) {
        sim::SimConfig config = options.sim;
        config.seed = options.sim.seed + r;
        return sim::simulate(system, alloc, config);
    });
    out.site_observed_rate.assign(evals[0].site_observed_rate.size(), 0.0);
    out.site_mean_occupancy.assign(evals[0].site_mean_occupancy.size(), 0.0);
    for (const sim::SimResult& eval : evals) {
        out.total_lost += static_cast<double>(eval.total_lost());
        out.weighted_loss += eval.weighted_loss(flow_weights);
        for (std::size_t s = 0; s < out.site_observed_rate.size(); ++s)
            out.site_observed_rate[s] += eval.site_observed_rate[s];
        for (std::size_t s = 0; s < out.site_mean_occupancy.size(); ++s)
            out.site_mean_occupancy[s] += eval.site_mean_occupancy[s];
    }
    const double n = static_cast<double>(reps);
    out.total_lost /= n;
    out.weighted_loss /= n;
    for (double& v : out.site_observed_rate) v /= n;
    for (double& v : out.site_mean_occupancy) v /= n;
    out.first = std::move(evals[0]);
    return out;
}

}  // namespace

SizingReport BufferSizingEngine::run(const arch::TestSystem& system) const {
    // A one-worker executor spawns no thread.
    exec::Executor serial(1);
    return run(system, serial, nullptr);
}

SizingReport BufferSizingEngine::run(const arch::TestSystem& system,
                                     exec::Executor& executor,
                                     ctmdp::SolveCache* cache) const {
    const ctmdp::SolverRegistry registry;

    SizingReport report;
    report.split = split::split_architecture(system, options_.placement);
    const auto& split = report.split;
    const std::size_t n_sites = split.sites.size();

    std::vector<double> flow_weights;
    flow_weights.reserve(system.flows.size());
    for (const auto& f : system.flows) flow_weights.push_back(f.weight);

    report.initial = uniform_allocation(split, options_.total_budget);

    // Every allocation this run has evaluated, with its evaluation.
    // simulate() is deterministic for fixed inputs, so an allocation seen
    // before — the fixed-point round, or a repeat with early_stop off —
    // reuses its RoundEval instead of simulating the same bits again. At
    // most iterations + 1 entries: a linear scan finds them, and the
    // reserve keeps the references handed out below valid.
    std::vector<std::pair<Allocation, RoundEval>> evaluated;
    evaluated.reserve(static_cast<std::size_t>(options_.iterations) + 1);
    const auto evaluate = [&](const Allocation& candidate)
        -> const RoundEval& {
        for (const auto& [seen, eval] : evaluated)
            if (seen == candidate) return eval;
        evaluated.emplace_back(candidate,
                               evaluate_round(system, candidate, options_,
                                              flow_weights, executor));
        return evaluated.back().second;
    };

    Allocation alloc = report.initial;
    report.best = report.initial;
    // The baseline must be scored at the same fidelity as the rounds it
    // competes with: replicated rounds against a single-sim baseline
    // would let one lucky (or unlucky) baseline seed bias which
    // allocation wins. `before` IS replication 0 at the base seed —
    // evaluate_round fans every replication (including 0) in one map, so
    // no simulation runs outside the parallel region and the
    // single-replication path keeps the legacy bits.
    const RoundEval& baseline = evaluate(report.initial);
    double best_weighted = baseline.weighted_loss;
    std::vector<double> rates;
    if (options_.use_measured_rates) rates = baseline.site_observed_rate;
    std::vector<double> measured_occ = baseline.site_mean_occupancy;

    report.site_scores.assign(n_sites, 0.0);

    // Active (apportionable) sites, in deterministic order. Pinned sites
    // — bridge sites the placement deselected — keep one passthrough
    // slot each off the top of the budget instead of a score share.
    const std::vector<arch::SiteId> active = active_sites(split);
    const long pinned_budget = pinned_site_budget(split);
    std::vector<arch::SiteId> pinned;
    for (const auto& sub : split.subsystems)
        for (const auto& f : sub.flows)
            if (f.pinned) pinned.push_back(f.site);

    for (int iter = 0; iter < options_.iterations; ++iter) {
        // Solve every subsystem and translate occupancies into
        // K-switching scores.
        score_subsystems(split, alloc, rates, options_, registry, executor,
                         cache, measured_occ, report);

        // Apportion the budget by score (each active site keeps >= 1).
        std::vector<double> weights;
        weights.reserve(active.size());
        for (const auto s : active) weights.push_back(report.site_scores[s]);
        const auto shares = util::apportion_largest_remainder(
            options_.total_budget - pinned_budget, weights, /*floor=*/1);
        Allocation next(n_sites, 0);
        for (const auto s : pinned) next[s] = 1;
        for (std::size_t i = 0; i < active.size(); ++i)
            next[active[i]] = shares[i];

        // Resimulate with the new buffer lengths and compare losses
        // (replicated and fanned when eval_replications > 1), unless this
        // run has already evaluated `next`.
        const RoundEval& eval = evaluate(next);
        IterationRecord rec;
        rec.allocation = next;
        rec.total_lost = eval.total_lost;
        rec.weighted_loss = eval.weighted_loss;
        report.history.push_back(rec);
        util::log(util::LogLevel::kInfo, "sizing iteration ", iter + 1,
                  ": total lost ", rec.total_lost, " (weighted ",
                  rec.weighted_loss, ")");

        if (rec.weighted_loss < best_weighted) {
            best_weighted = rec.weighted_loss;
            report.best = next;
        }
        if (options_.use_measured_rates)
            rates = eval.site_observed_rate;
        measured_occ = eval.site_mean_occupancy;
        const bool fixed_point = next == alloc;
        alloc = next;
        if (options_.early_stop && fixed_point) {
            util::log(util::LogLevel::kInfo,
                      "allocation reached a fixed point after ", iter + 1,
                      " rounds");
            break;
        }
    }

    report.best_weighted_loss = best_weighted;
    // Replication 0 of `initial` and `best`, both already on the list.
    report.before = evaluate(report.initial).first;
    report.after = evaluate(report.best).first;
    return report;
}

}  // namespace socbuf::core
