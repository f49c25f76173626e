#include "replay.hpp"

#include "arch/sites.hpp"
#include "core/allocation.hpp"
#include "core/engine.hpp"
#include "core/subsystem_model.hpp"
#include "ctmdp/occupation.hpp"
#include "exec/executor.hpp"
#include "insertion/search.hpp"
#include "sim/simulator.hpp"
#include "split/splitter.hpp"
#include "util/numeric.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <string>

namespace pipebench {

namespace {

using namespace socbuf;

const char* rung_name(ctmdp::SolverKind kind) {
    switch (kind) {
        case ctmdp::SolverKind::kLp: return "lp";
        case ctmdp::SolverKind::kPolicyIteration: return "pi";
        case ctmdp::SolverKind::kValueIteration: return "vi";
    }
    return "unknown";
}

/// What one sizing job hands its evaluation replications.
struct Sized {
    arch::TestSystem system;
    core::Allocation initial;
    core::Allocation best;
    bool timeout_evaluated = false;
    sim::SimConfig timeout_config;
};

struct EngineOut {
    core::Allocation initial;
    core::Allocation best;
    double best_weighted_loss = 0.0;
};

struct RoundEval {
    double total_lost = 0.0;
    double weighted_loss = 0.0;
    std::vector<double> site_observed_rate;
    std::vector<double> site_mean_occupancy;
};

class Replay {
public:
    explicit Replay(std::size_t threads) : executor_(threads) {}

    ReplayResult run(const std::vector<scenario::ScenarioSpec>& specs);

private:
    /// Executor::map with every task's queue wait recorded and the
    /// submitting span adopted as the task's parent.
    template <typename Fn>
    auto map(std::size_t n, Fn&& fn,
             exec::Priority priority = exec::Priority::kDefault) {
        const std::int64_t parent = Tracer::current();
        const std::int64_t submitted = tracer_.now_ns();
        return executor_.map(
            n,
            [&, parent, submitted](std::size_t i) {
                const std::int64_t waited = tracer_.now_ns() - submitted;
                {
                    const std::lock_guard<std::mutex> lock(mutex_);
                    ++out_.exec_tasks;
                    out_.exec_wait_s += static_cast<double>(waited) * 1e-9;
                }
                const Tracer::Adopt adopt(parent);
                return fn(i);
            },
            priority);
    }

    split::SplitResult split_system(const arch::TestSystem& system,
                                    const split::Placement& placement);
    sim::SimResult simulate(const arch::TestSystem& system,
                            const core::Allocation& alloc,
                            const sim::SimConfig& config);
    ctmdp::SubsystemSolution solve(const ctmdp::CtmdpModel& model,
                                   const ctmdp::DispatchOptions& dispatch);
    RoundEval evaluate_round(const arch::TestSystem& system,
                             const core::Allocation& alloc,
                             const core::SizingOptions& options,
                             const std::vector<double>& flow_weights);
    void score_subsystems(const split::SplitResult& split,
                          const core::Allocation& alloc,
                          const std::vector<double>& rates,
                          const core::SizingOptions& options,
                          const std::vector<double>& measured_occ,
                          std::vector<double>& site_scores,
                          std::vector<double>& site_service_weights);
    EngineOut run_engine(const arch::TestSystem& system,
                         const core::SizingOptions& options);
    std::vector<arch::SiteId> resolve_candidates(
        const scenario::ScenarioSpec& spec, const arch::TestSystem& system,
        const std::vector<arch::BufferSite>& sites);
    Sized run_sizing(const scenario::ScenarioSpec& spec, std::size_t variant,
                     long budget);
    std::uint64_t run_eval(const scenario::ScenarioSpec& spec,
                           const Sized& sized, std::size_t replication);

    exec::Executor executor_;
    Tracer tracer_;
    ctmdp::SolverRegistry registry_;
    ctmdp::SolveCache cache_;
    std::mutex mutex_;  // guards out_'s counters while workers run
    ReplayResult out_;
};

split::SplitResult Replay::split_system(
    const arch::TestSystem& system, const split::Placement& placement) {
    const Tracer::Scope scope(tracer_, "split", "split.split_architecture");
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++out_.split_calls;
    }
    return split::split_architecture(system, placement);
}

sim::SimResult Replay::simulate(const arch::TestSystem& system,
                                const core::Allocation& alloc,
                                const sim::SimConfig& config) {
    sim::SimResult result = [&] {
        const Tracer::Scope scope(tracer_, "sim", "sim.simulate");
        return sim::simulate(system, alloc, config);
    }();
    const std::lock_guard<std::mutex> lock(mutex_);
    ++out_.sim_runs;
    out_.sim_packets += result.total_offered();
    return result;
}

ctmdp::SubsystemSolution Replay::solve(const ctmdp::CtmdpModel& model,
                                       const ctmdp::DispatchOptions& dispatch) {
    SolveRecord record;
    record.states = model.state_count();
    record.selected = registry_.select(model, dispatch);
    ctmdp::SubsystemSolution solution;
    {
        Tracer::Scope scope(tracer_, "ctmdp", "ctmdp.solve");
        const std::size_t misses_before = cache_.stats().misses;
        solution = cache_.solve(registry_, model, dispatch);
        record.hit = cache_.stats().misses == misses_before;
        scope.rename(record.hit ? std::string("ctmdp.hit")
                                : std::string("ctmdp.") +
                                      rung_name(solution.solved_by));
    }
    record.solved_by = solution.solved_by;
    record.iterations = solution.iterations;
    record.converged = solution.converged;
    if (!record.hit)
        record.key_bytes = ctmdp::solve_fingerprint(model, dispatch).size();
    const std::lock_guard<std::mutex> lock(mutex_);
    out_.solves.push_back(record);
    return solution;
}

// Mirrors core::BufferSizingEngine's evaluate_round (replications fanned
// in one map, folded in replication order).
RoundEval Replay::evaluate_round(const arch::TestSystem& system,
                                 const core::Allocation& alloc,
                                 const core::SizingOptions& options,
                                 const std::vector<double>& flow_weights) {
    RoundEval out;
    const std::size_t reps = options.eval_replications;
    const auto evals = map(reps, [&](std::size_t r) {
        sim::SimConfig config = options.sim;
        config.seed = options.sim.seed + r;
        return simulate(system, alloc, config);
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
    return out;
}

// Mirrors the engine's make_dispatch + score_subsystems (Poisson models).
void Replay::score_subsystems(const split::SplitResult& split,
                              const core::Allocation& alloc,
                              const std::vector<double>& rates,
                              const core::SizingOptions& options,
                              const std::vector<double>& measured_occ,
                              std::vector<double>& site_scores,
                              std::vector<double>& site_service_weights) {
    ctmdp::DispatchOptions dispatch;
    dispatch.choice = options.solver;
    dispatch.lp_pair_limit = options.lp_pair_limit;
    dispatch.pi_state_limit = options.pi_state_limit;
    dispatch.solver.vi.tolerance = 1e-7;
    dispatch.solver.vi.max_iterations = 50000;
    dispatch.solver.vi.sweep = options.gauss_seidel
                                   ? ctmdp::ViSweep::kGaussSeidel
                                   : ctmdp::ViSweep::kJacobi;
    dispatch.solver.vi.executor = &executor_;

    const auto models = [&] {
        const Tracer::Scope scope(tracer_, "core", "core.build_models");
        return core::build_subsystem_models(split, alloc, options.model_cap,
                                            rates);
    }();
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        for (const auto& m : models)
            out_.model_states += m.model().state_count();
    }
    const auto solutions = map(models.size(), [&](std::size_t i) {
        return solve(models[i].model(), dispatch);
    });
    for (std::size_t m = 0; m < models.size(); ++m) {
        const auto& sub_model = models[m];
        const ctmdp::SubsystemSolution& sol = solutions[m];
        const auto shares = sub_model.service_shares(sol.occupation);
        const auto& flows = sub_model.subsystem().flows;
        for (std::size_t f = 0; f < flows.size(); ++f) {
            const auto marginal = sub_model.flow_marginal(sol.stationary, f);
            const double q = static_cast<double>(
                ctmdp::marginal_quantile(marginal, options.tail_mass));
            const double mean = ctmdp::marginal_mean(marginal);
            const double at_cap = marginal.back();
            const double score =
                q + mean +
                options.saturation_boost * at_cap *
                    static_cast<double>(sub_model.caps()[f]) +
                options.measured_occupancy_weight *
                    measured_occ[flows[f].site];
            site_scores[flows[f].site] = std::max(score, 1e-6);
            site_service_weights[flows[f].site] = shares[f];
        }
    }
}

// Mirrors core::BufferSizingEngine::run(system, executor, cache).
EngineOut Replay::run_engine(const arch::TestSystem& system,
                             const core::SizingOptions& options) {
    if (options.use_modulated_models)
        throw std::runtime_error(
            "the replay mirrors Poisson subsystem models only");
    const Tracer::Scope scope(tracer_, "core", "core.sizing");
    const split::SplitResult split_result =
        split_system(system, options.placement);
    const std::size_t n_sites = split_result.sites.size();

    std::vector<double> flow_weights;
    flow_weights.reserve(system.flows.size());
    for (const auto& f : system.flows) flow_weights.push_back(f.weight);

    EngineOut out;
    out.initial =
        core::uniform_allocation(split_result, options.total_budget);
    core::Allocation alloc = out.initial;
    out.best = out.initial;
    const RoundEval baseline =
        evaluate_round(system, out.initial, options, flow_weights);
    double best_weighted = baseline.weighted_loss;
    std::vector<double> rates;
    if (options.use_measured_rates) rates = baseline.site_observed_rate;
    std::vector<double> measured_occ = baseline.site_mean_occupancy;

    std::vector<double> site_scores(n_sites, 0.0);
    std::vector<double> site_service_weights(n_sites, 0.0);
    const std::vector<arch::SiteId> active = core::active_sites(split_result);
    const long pinned_budget = core::pinned_site_budget(split_result);
    std::vector<arch::SiteId> pinned;
    for (const auto& sub : split_result.subsystems)
        for (const auto& f : sub.flows)
            if (f.pinned) pinned.push_back(f.site);

    std::size_t rounds = 0;
    for (int iter = 0; iter < options.iterations; ++iter) {
        ++rounds;
        score_subsystems(split_result, alloc, rates, options, measured_occ,
                         site_scores, site_service_weights);
        std::vector<double> weights;
        weights.reserve(active.size());
        for (const auto s : active) weights.push_back(site_scores[s]);
        const auto shares = [&] {
            const Tracer::Scope apportion(tracer_, "core", "core.apportion");
            return util::apportion_largest_remainder(
                options.total_budget - pinned_budget, weights, /*floor=*/1);
        }();
        core::Allocation next(n_sites, 0);
        for (const auto s : pinned) next[s] = 1;
        for (std::size_t i = 0; i < active.size(); ++i)
            next[active[i]] = shares[i];

        const RoundEval eval =
            evaluate_round(system, next, options, flow_weights);
        if (eval.weighted_loss < best_weighted) {
            best_weighted = eval.weighted_loss;
            out.best = next;
        }
        if (options.use_measured_rates) rates = eval.site_observed_rate;
        measured_occ = eval.site_mean_occupancy;
        const bool fixed_point = next == alloc;
        alloc = next;
        if (options.early_stop && fixed_point) break;
    }
    out.best_weighted_loss = best_weighted;
    // The engine's report.after: simulated even though the batch only
    // keeps the allocation, so the replay pays for it too.
    (void)simulate(system, out.best, options.sim);
    const std::lock_guard<std::mutex> lock(mutex_);
    ++out_.sizing_runs;
    out_.rounds += rounds;
    return out;
}

// Mirrors scenario::BatchRunner's resolve_candidates for the default
// candidate set (every traffic-carrying bridge site), the only one the
// workloads use.
std::vector<arch::SiteId> Replay::resolve_candidates(
    const scenario::ScenarioSpec& spec, const arch::TestSystem& system,
    const std::vector<arch::BufferSite>& sites) {
    if (!spec.insertion.candidates.empty())
        throw std::runtime_error(
            "the replay mirrors the default insertion candidates only");
    const split::SplitResult split_result =
        split_system(system, split::Placement{});
    std::vector<arch::SiteId> carrying;
    for (const auto& sub : split_result.subsystems)
        for (const auto& flow : sub.flows)
            if (sites[flow.site].kind == arch::SiteKind::kBridge)
                carrying.push_back(flow.site);
    std::sort(carrying.begin(), carrying.end());
    carrying.erase(std::unique(carrying.begin(), carrying.end()),
                   carrying.end());
    return carrying;
}

// Mirrors scenario::BatchRunner's run_sizing.
Sized Replay::run_sizing(const scenario::ScenarioSpec& spec,
                         std::size_t variant, long budget) {
    const Tracer::Scope scope(tracer_, "scenario", "scenario.sizing_job");
    Sized out;
    out.system = spec.build_system(variant);
    core::SizingOptions options = spec.sizing_options(budget);
    if (spec.insertion.search) {
        arch::SiteCostModel cost_model;
        cost_model.processor_cost = spec.insertion.processor_site_cost;
        cost_model.bridge_cost = spec.insertion.bridge_site_cost;
        const std::vector<arch::BufferSite> sites =
            arch::enumerate_buffer_sites(out.system.architecture, cost_model);
        const std::vector<arch::SiteId> candidates =
            resolve_candidates(spec, out.system, sites);
        std::vector<double> candidate_costs;
        for (const arch::SiteId s : candidates)
            candidate_costs.push_back(sites[s].unit_cost);
        insertion::SearchOptions search_options;
        search_options.exhaustive_limit = spec.insertion.exhaustive_limit;
        const insertion::SearchResult found = [&] {
            const Tracer::Scope search(tracer_, "insertion",
                                       "insertion.search");
            const std::int64_t search_span = Tracer::current();
            const auto evaluate = [&](const split::Placement& placement) {
                const Tracer::Adopt adopt(search_span);
                core::SizingOptions plan_options = options;
                plan_options.placement = placement;
                return run_engine(out.system, plan_options).best_weighted_loss;
            };
            return insertion::search_placements(candidates, candidate_costs,
                                                evaluate, executor_,
                                                search_options);
        }();
        options.placement = found.best;
        const std::lock_guard<std::mutex> lock(mutex_);
        out_.plans_evaluated += found.plans_evaluated;
        out_.plan_space += std::size_t{1} << candidates.size();
    }

    const EngineOut engine = run_engine(out.system, options);
    out.initial = engine.initial;
    out.best = engine.best;
    if (spec.evaluate_timeout_policy) {
        const sim::TimeoutCalibration calibration = [&] {
            const Tracer::Scope calibrate(tracer_, "sim", "sim.calibrate");
            return sim::calibrate_timeout(
                out.system, out.initial, options.sim,
                spec.timeout_threshold_scale, executor_,
                spec.calibration_replications);
        }();
        out.timeout_config = options.sim;
        out.timeout_config.timeout_enabled = true;
        out.timeout_config.timeout_threshold =
            std::max(calibration.global_threshold, 1e-6);
        out.timeout_config.site_timeout_thresholds =
            calibration.site_thresholds;
        out.timeout_evaluated = true;
    }
    return out;
}

// Mirrors scenario::BatchRunner's run_eval; returns post_total.
std::uint64_t Replay::run_eval(const scenario::ScenarioSpec& spec,
                               const Sized& sized, std::size_t replication) {
    const Tracer::Scope scope(tracer_, "scenario", "scenario.eval");
    sim::SimConfig config = spec.sim;
    config.seed = spec.sim.seed + replication;
    (void)simulate(sized.system, sized.initial, config);
    const std::uint64_t post_total =
        simulate(sized.system, sized.best, config).total_lost();
    if (sized.timeout_evaluated) {
        sim::SimConfig timeout_config = sized.timeout_config;
        timeout_config.seed = config.seed;
        (void)simulate(sized.system, sized.initial, timeout_config);
    }
    return post_total;
}

ReplayResult Replay::run(const std::vector<scenario::ScenarioSpec>& specs) {
    struct Job {
        std::size_t spec = 0;
        std::size_t variant = 0;
        long budget = 0;
    };
    for (const auto& spec : specs) spec.validate();
    std::vector<Job> jobs;
    for (std::size_t s = 0; s < specs.size(); ++s)
        for (std::size_t v = 0; v < specs[s].variants.size(); ++v)
            for (const long budget : specs[s].budgets)
                jobs.push_back({s, v, budget});
    std::vector<std::size_t> eval_job;  // evaluation index -> job
    std::vector<std::size_t> eval_rep;  // evaluation index -> replication
    for (std::size_t j = 0; j < jobs.size(); ++j)
        for (std::size_t r = 0; r < specs[jobs[j].spec].replications; ++r) {
            eval_job.push_back(j);
            eval_rep.push_back(r);
        }

    const std::int64_t start = tracer_.now_ns();
    std::vector<Sized> sized;
    std::vector<std::uint64_t> post_totals;
    {
        const Tracer::Scope root(tracer_, "replay", "replay");
        sized = map(
            jobs.size(),
            [&](std::size_t j) {
                return run_sizing(specs[jobs[j].spec], jobs[j].variant,
                                  jobs[j].budget);
            },
            exec::Priority::kSizing);
        post_totals = map(
            eval_job.size(),
            [&](std::size_t e) {
                return run_eval(specs[jobs[eval_job[e]].spec],
                                sized[eval_job[e]], eval_rep[e]);
            },
            exec::Priority::kEvaluation);
    }
    out_.wall_s = static_cast<double>(tracer_.now_ns() - start) * 1e-9;

    // Replication-mean fold, as BatchRunner's fold_replications does it.
    for (std::size_t j = 0, e = 0; j < jobs.size(); ++j) {
        ReplayRun run;
        run.constant_alloc = sized[j].initial;
        run.resized_alloc = sized[j].best;
        const std::size_t reps = specs[jobs[j].spec].replications;
        for (std::size_t r = 0; r < reps; ++r, ++e)
            run.post_total += static_cast<double>(post_totals[e]);
        run.post_total /= static_cast<double>(reps);
        out_.runs.push_back(std::move(run));
    }
    out_.cache = cache_.stats();
    out_.spans = tracer_.spans();
    return std::move(out_);
}

}  // namespace

ReplayResult replay(const std::vector<socbuf::scenario::ScenarioSpec>& specs,
                    std::size_t threads) {
    Replay replay(threads);
    return replay.run(specs);
}

}  // namespace pipebench
