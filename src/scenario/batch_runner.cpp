#include "scenario/batch_runner.hpp"

#include "arch/sites.hpp"
#include "core/engine.hpp"
#include "exec/task_graph.hpp"
#include "insertion/search.hpp"
#include "scenario/scenario_io.hpp"
#include "sim/simulator.hpp"
#include "split/splitter.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <utility>

namespace socbuf::scenario {

namespace {

/// Stage-1 work item: one (spec, variant, budget).
struct SizingJob {
    std::size_t spec = 0;
    std::size_t variant = 0;
    long budget = 0;
};

/// Stage-2 result: one replication's simulation under each policy.
struct EvalSample {
    sim::SimResult pre;
    sim::SimResult post;
    sim::SimResult timeout;
};

/// Stage-1 result: the sized system plus everything stage 2 needs.
struct SizingOutcome {
    arch::TestSystem system;
    core::Allocation initial;
    core::Allocation best;
    // Evaluation replication 0's pre/post simulations: the final engine
    // run's `before` / `after`, which simulated `initial` / `best` at
    // spec.sim exactly as run_eval's replication 0 would.
    EvalSample first_eval;
    std::size_t engine_rounds = 0;
    std::size_t lp_solves = 0;
    std::size_t vi_solves = 0;
    std::size_t pi_solves = 0;
    // Timeout policy calibration (only when the spec evaluates it).
    double timeout_threshold = 0.0;
    sim::SimConfig timeout_config;
    bool timeout_evaluated = false;
    InsertionRunReport insertion;
};

/// Stage 1 of one job: the placement search (when the spec asks for it),
/// the final sizing run under the chosen placement — whose `before` /
/// `after` losses are kept as evaluation replication 0 — and the timeout
/// calibration.
SizingOutcome run_sizing(const ScenarioSpec& spec, const SizingJob& job,
                         exec::Executor& executor,
                         ctmdp::SolveCache* cache) {
    SizingOutcome out;
    out.system = spec.build_system(job.variant);
    core::SizingOptions options = spec.sizing_options(job.budget);

    if (spec.insertion.search) {
        // Placement search first: score every candidate plan by a full
        // sizing run at this budget (all through the shared executor and
        // solve cache — plans sharing subsystem structure hit the cache),
        // then size under the winner below. The final engine run repeats
        // the winning plan's evaluation, so its solves are all cache
        // hits.
        arch::SiteCostModel cost_model;
        cost_model.processor_cost = spec.insertion.processor_site_cost;
        cost_model.bridge_cost = spec.insertion.bridge_site_cost;
        const std::vector<arch::BufferSite> sites =
            arch::enumerate_buffer_sites(out.system.architecture, cost_model);
        const std::vector<arch::SiteId> candidates =
            resolve_candidates(spec, out.system, sites);
        std::vector<double> candidate_costs;
        candidate_costs.reserve(candidates.size());
        for (const arch::SiteId s : candidates)
            candidate_costs.push_back(sites[s].unit_cost);
        const auto evaluate = [&](const split::Placement& placement) {
            core::SizingOptions plan_options = options;
            plan_options.placement = placement;
            return core::BufferSizingEngine(plan_options)
                .run(out.system, executor, cache)
                .best_weighted_loss;
        };
        insertion::SearchOptions search_options;
        search_options.exhaustive_limit = spec.insertion.exhaustive_limit;
        const insertion::SearchResult found = insertion::search_placements(
            candidates, candidate_costs, evaluate, executor, search_options);
        options.placement = found.best;
        out.insertion.searched = true;
        for (const arch::SiteId s : candidates) {
            if (found.best.site_selected(s))
                out.insertion.selected_sites.push_back(sites[s].name);
            else
                out.insertion.deselected_sites.push_back(sites[s].name);
        }
        out.insertion.searched_loss = found.best_loss;
        out.insertion.preset_loss = found.preset_loss;
        out.insertion.plans_evaluated = found.plans_evaluated;
        out.insertion.plans_pruned = found.plans_pruned;
        out.insertion.exhaustive = found.exhaustive;
    }

    const core::BufferSizingEngine engine(options);
    const core::SizingReport report = engine.run(out.system, executor, cache);
    out.initial = report.initial;
    out.best = report.best;
    out.first_eval.pre = report.before;
    out.first_eval.post = report.after;
    out.engine_rounds = report.history.size();
    out.lp_solves = report.lp_solves;
    out.vi_solves = report.vi_solves;
    out.pi_solves = report.pi_solves;
    if (spec.evaluate_timeout_policy) {
        // Figure 3's calibration: the scaled mean buffer wait of the
        // constant allocation, globally and per site. Both thresholds
        // come from ONE set of calibration sims fanned across the shared
        // executor, and spec.calibration_replications averages
        // independent substreams; one replication keeps the classic
        // calibration bit for bit.
        const sim::TimeoutCalibration calibration = sim::calibrate_timeout(
            out.system, out.initial, options.sim,
            spec.timeout_threshold_scale, executor,
            spec.calibration_replications);
        out.timeout_threshold = calibration.global_threshold;
        out.timeout_config = options.sim;
        out.timeout_config.timeout_enabled = true;
        out.timeout_config.timeout_threshold =
            std::max(out.timeout_threshold, 1e-6);
        out.timeout_config.site_timeout_thresholds =
            calibration.site_thresholds;
        out.timeout_evaluated = true;
    }
    return out;
}

/// One evaluation replication: `initial` and `best` at seed
/// spec.sim.seed + replication, plus the timeout policy when evaluated.
/// Replication 0 is the seed the sizing run's `before` / `after` already
/// simulated — sizing_options() copies spec.sim verbatim — so it reuses
/// those simulations; only the timeout-policy sim runs for it.
EvalSample run_eval(const ScenarioSpec& spec, const SizingOutcome& sized,
                    std::size_t replication) {
    sim::SimConfig config = spec.sim;
    config.seed = spec.sim.seed + replication;
    EvalSample sample;
    if (replication == 0) {
        sample = sized.first_eval;
    } else {
        sample.pre = sim::simulate(sized.system, sized.initial, config);
        sample.post = sim::simulate(sized.system, sized.best, config);
    }
    if (sized.timeout_evaluated) {
        sim::SimConfig timeout_config = sized.timeout_config;
        timeout_config.seed = config.seed;
        sample.timeout =
            sim::simulate(sized.system, sized.initial, timeout_config);
    }
    return sample;
}

/// Estimated solver cost of one (spec, variant): per subsystem,
/// (model_cap+1)^flows CTMDP states times ~(flows+1) actions, doubled per
/// bursty flow when the spec uses modulated (MMPP) models. A deliberate
/// back-of-envelope — it only has to *rank* the sizing jobs for
/// longest-first submission, and the state count dominates every solver's
/// runtime, so ranking by it tracks wall-clock well enough.
double estimated_sizing_cost(const ScenarioSpec& spec, std::size_t variant) {
    const arch::TestSystem system = spec.build_system(variant);
    const split::SplitResult split = split::split_architecture(system);
    const double cap = static_cast<double>(
        spec.sizing_options(spec.budgets.front()).model_cap);
    double cost = 0.0;
    for (const auto& sub : split.subsystems) {
        const double flows = static_cast<double>(sub.flows.size());
        double states = std::pow(cap + 1.0, flows);
        if (spec.use_modulated_models)
            for (const auto& flow : sub.flows)
                if (flow.bursty()) states *= 2.0;
        cost += states * (flows + 1.0);
    }
    return cost;
}

/// Replication means of one policy's evaluation sims, through the
/// library's one fold (sim::fold_replications), so a batch row equals a
/// sim::replicate_losses call bit for bit.
void fold_replications(const std::vector<sim::SimResult>& results,
                       std::vector<double>& mean_out, double& total_out) {
    sim::ReplicatedLosses means = sim::fold_replications(results);
    mean_out = std::move(means.mean_lost_per_processor);
    total_out = means.mean_total_lost;
}

}  // namespace

BatchRunner::BatchRunner(exec::Executor& executor, BatchOptions options)
    : executor_(executor), options_(options) {}

BatchReport BatchRunner::run(const ScenarioSpec& spec) {
    return run(std::vector<ScenarioSpec>{spec});
}

BatchReport BatchRunner::run(const std::vector<ScenarioSpec>& specs) {
    for (const auto& spec : specs) {
        spec.validate();
        check_runnable(spec);
    }

    // Expansion order defines result order: spec-major, variant, budget.
    std::vector<SizingJob> jobs;
    for (std::size_t s = 0; s < specs.size(); ++s)
        for (std::size_t v = 0; v < specs[s].variants.size(); ++v)
            for (const long budget : specs[s].budgets)
                jobs.push_back({s, v, budget});

    std::vector<std::size_t> eval_offset(jobs.size() + 1, 0);
    for (std::size_t j = 0; j < jobs.size(); ++j)
        eval_offset[j + 1] =
            eval_offset[j] + specs[jobs[j].spec].replications;

    ctmdp::SolveCache cache;
    ctmdp::SolveCache* cache_ptr = options_.use_solve_cache ? &cache : nullptr;

    // Longest-first submission: order same-priority sizing jobs by
    // descending estimated cost (stable, so ties keep expansion order and
    // the schedule stays reproducible), so the biggest CTMDPs start first
    // and the batch's makespan is not hostage to a large job queued last. Same-cost memoization per
    // (spec, variant): budgets share a model, so one estimate covers a
    // whole sweep. Submission order is invisible to the results — slots
    // are index-addressed and folded in expansion order below.
    std::vector<std::size_t> order(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) order[j] = j;
    if (jobs.size() > 1) {
        std::vector<double> variant_cost;  // (spec, variant) memo, -1 unset
        std::vector<std::size_t> variant_base(specs.size() + 1, 0);
        for (std::size_t s = 0; s < specs.size(); ++s)
            variant_base[s + 1] = variant_base[s] + specs[s].variants.size();
        variant_cost.assign(variant_base.back(), -1.0);
        std::vector<double> job_cost(jobs.size(), 0.0);
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            const std::size_t slot = variant_base[jobs[j].spec] +
                                     jobs[j].variant;
            if (variant_cost[slot] < 0.0)
                variant_cost[slot] = estimated_sizing_cost(
                    specs[jobs[j].spec], jobs[j].variant);
            job_cost[j] = variant_cost[slot];
        }
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return job_cost[a] > job_cost[b];
                         });
    }

    // One dependency-aware fan-out, no stage barrier: every sizing job is
    // submitted up front and submits its own evaluation replications the
    // moment it finishes, so evaluation work starts while other sizing
    // jobs are still running. Sizing enters the graph at Priority::kSizing
    // and evaluations at Priority::kEvaluation, so a finished job's
    // evaluations are claimed before queued sizing work — that ordering
    // is what first_eval_latency_s measures; it cannot change the
    // results. Sizing jobs keep the shared executor
    // for their nested fan-outs (subsystem solves, per-round eval sims,
    // calibration sims) — nested maps are deadlock-free by the executor's
    // nesting rule. Every job writes an index-addressed slot; the fold
    // below reads them in expansion order, which is what keeps the report
    // bit-identical for any worker count.
    std::vector<SizingOutcome> sized(jobs.size());
    std::vector<EvalSample> samples(eval_offset.back());
    std::atomic<std::size_t> sizing_in_flight{0};
    std::atomic<std::size_t> overlap{0};
    // Completion time of the earliest-finishing evaluation job, in
    // microseconds since batch start (-1 = none finished yet). A
    // CAS-min keeps the earliest value under concurrent finishes.
    std::atomic<std::int64_t> first_eval_us{-1};
    // socbuf-lint: allow(wall-clock) — feeds first_eval_latency_s, a scheduling diagnostic; report folds never read it.
    const auto batch_start = std::chrono::steady_clock::now();
    exec::TaskGraph graph(executor_);
    for (const std::size_t j : order) {
        graph.submit(
            [&, j] {
                ++sizing_in_flight;
                sized[j] = run_sizing(specs[jobs[j].spec], jobs[j],
                                      executor_, cache_ptr);
                --sizing_in_flight;
                for (std::size_t e = eval_offset[j]; e < eval_offset[j + 1];
                     ++e) {
                    graph.submit(
                        [&, j, e] {
                            // Scheduling diagnostics only — results never
                            // read them.
                            if (sizing_in_flight.load(
                                    std::memory_order_relaxed) > 0)
                                overlap.fetch_add(1,
                                                  std::memory_order_relaxed);
                            samples[e] = run_eval(specs[jobs[j].spec],
                                                  sized[j],
                                                  e - eval_offset[j]);
                            const auto us =
                                std::chrono::duration_cast<
                                    std::chrono::microseconds>(
                                    // socbuf-lint: allow(wall-clock) — first_eval_latency_s diagnostic; never folded into results.
                                    std::chrono::steady_clock::now() -
                                    batch_start)
                                    .count();
                            std::int64_t seen = first_eval_us.load(
                                std::memory_order_relaxed);
                            while ((seen < 0 || us < seen) &&
                                   !first_eval_us.compare_exchange_weak(
                                       seen, us, std::memory_order_relaxed)) {
                            }
                        },
                        exec::Priority::kEvaluation);
                }
            },
            exec::Priority::kSizing);
    }
    graph.wait();

    // Fold, in expansion order.
    BatchReport report;
    report.workers = executor_.workers();
    report.eval_overlap = overlap.load();
    report.first_eval_latency_s =
        first_eval_us.load() < 0
            ? -1.0
            : static_cast<double>(first_eval_us.load()) * 1e-6;
    report.runs.reserve(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const ScenarioSpec& spec = specs[jobs[j].spec];
        const SizingOutcome& outcome = sized[j];
        ScenarioRunResult run;
        run.scenario = spec.name;
        run.variant = spec.variants[jobs[j].variant].label;
        run.budget = jobs[j].budget;
        run.replications = spec.replications;
        run.constant_alloc = outcome.initial;
        run.resized_alloc = outcome.best;
        run.engine_rounds = outcome.engine_rounds;
        run.lp_solves = outcome.lp_solves;
        run.vi_solves = outcome.vi_solves;
        run.pi_solves = outcome.pi_solves;
        run.timeout_threshold = outcome.timeout_threshold;
        run.insertion = outcome.insertion;

        std::vector<sim::SimResult> pre, post, timeout;
        for (std::size_t e = eval_offset[j]; e < eval_offset[j + 1]; ++e) {
            pre.push_back(std::move(samples[e].pre));
            post.push_back(std::move(samples[e].post));
            if (outcome.timeout_evaluated)
                timeout.push_back(std::move(samples[e].timeout));
        }
        fold_replications(pre, run.pre_loss, run.pre_total);
        fold_replications(post, run.post_loss, run.post_total);
        if (outcome.timeout_evaluated)
            fold_replications(timeout, run.timeout_loss, run.timeout_total);
        report.runs.push_back(std::move(run));
    }
    report.cache = cache.stats();
    report.cache_enabled = options_.use_solve_cache;
    return report;
}

util::Table BatchReport::summary_table() const {
    // Insertion columns appear only when some run actually searched, so
    // default batches keep the pre-search CSV bytes.
    bool any_searched = false;
    for (const auto& run : runs) any_searched |= run.insertion.searched;
    std::vector<std::string> header{"scenario", "variant",  "budget",
                                    "reps",     "pre loss", "post loss",
                                    "gain",     "rounds",   "lp/vi/pi"};
    if (any_searched) {
        header.push_back("plans");
        header.push_back("pruned");
        header.push_back("search gain");
    }
    util::Table table(header);
    for (const auto& run : runs) {
        std::vector<std::string> row{
            run.scenario, run.variant.empty() ? "-" : run.variant,
            std::to_string(run.budget), std::to_string(run.replications),
            util::format_fixed(run.pre_total, 2),
            util::format_fixed(run.post_total, 2),
            util::format_fixed(100.0 * run.improvement(), 1) + "%",
            std::to_string(run.engine_rounds),
            std::to_string(run.lp_solves) + "/" +
                std::to_string(run.vi_solves) + "/" +
                std::to_string(run.pi_solves)};
        if (any_searched) {
            if (run.insertion.searched) {
                const double gain =
                    run.insertion.preset_loss > 0.0
                        ? 1.0 - run.insertion.searched_loss /
                                    run.insertion.preset_loss
                        : 0.0;
                row.push_back(std::to_string(run.insertion.plans_evaluated));
                row.push_back(std::to_string(run.insertion.plans_pruned));
                row.push_back(util::format_fixed(100.0 * gain, 1) + "%");
            } else {
                row.push_back("-");
                row.push_back("-");
                row.push_back("-");
            }
        }
        table.add_row(row);
    }
    return table;
}

std::string BatchReport::to_csv() const { return summary_table().to_csv(); }

namespace {

util::JsonValue to_json_array(const std::vector<double>& values) {
    util::JsonValue out = util::JsonValue::array();
    for (const double v : values) out.push_back(v);
    return out;
}

util::JsonValue to_json_array(const std::vector<long>& values) {
    util::JsonValue out = util::JsonValue::array();
    for (const long v : values) out.push_back(v);
    return out;
}

}  // namespace

std::string BatchReport::to_json(int indent) const {
    util::JsonValue root = util::JsonValue::object();
    root.set("workers", workers);
    // A disabled cache serializes as {"enabled": false} only — zeroed
    // counters would be indistinguishable from "enabled but cold".
    util::JsonValue cache_node = util::JsonValue::object();
    cache_node.set("enabled", cache_enabled);
    if (cache_enabled) {
        cache_node.set("hits", cache.hits);
        cache_node.set("misses", cache.misses);
        cache_node.set("hit_rate", cache.hit_rate());
        cache_node.set("bytes_resident", cache.bytes_resident);
    }
    root.set("solve_cache", std::move(cache_node));

    util::JsonValue runs_node = util::JsonValue::array();
    for (const auto& run : runs) {
        util::JsonValue node = util::JsonValue::object();
        node.set("scenario", run.scenario);
        if (!run.variant.empty()) node.set("variant", run.variant);
        node.set("budget", run.budget);
        node.set("replications", run.replications);
        node.set("pre_total", run.pre_total);
        node.set("post_total", run.post_total);
        node.set("improvement", run.improvement());
        node.set("pre_loss", to_json_array(run.pre_loss));
        node.set("post_loss", to_json_array(run.post_loss));
        if (!run.timeout_loss.empty()) {
            node.set("timeout_total", run.timeout_total);
            node.set("timeout_threshold", run.timeout_threshold);
            node.set("timeout_loss", to_json_array(run.timeout_loss));
        }
        // Only for runs that searched: default-spec reports keep their
        // pre-search bytes, like the other optional keys.
        if (run.insertion.searched) {
            util::JsonValue ins = util::JsonValue::object();
            util::JsonValue selected = util::JsonValue::array();
            for (const auto& s : run.insertion.selected_sites)
                selected.push_back(s);
            util::JsonValue deselected = util::JsonValue::array();
            for (const auto& s : run.insertion.deselected_sites)
                deselected.push_back(s);
            ins.set("selected_sites", std::move(selected));
            ins.set("deselected_sites", std::move(deselected));
            ins.set("searched_loss", run.insertion.searched_loss);
            ins.set("preset_loss", run.insertion.preset_loss);
            ins.set("plans_evaluated", run.insertion.plans_evaluated);
            ins.set("plans_pruned", run.insertion.plans_pruned);
            ins.set("exhaustive", run.insertion.exhaustive);
            node.set("insertion", std::move(ins));
        }
        node.set("constant_alloc", to_json_array(run.constant_alloc));
        node.set("resized_alloc", to_json_array(run.resized_alloc));
        node.set("engine_rounds", run.engine_rounds);
        node.set("lp_solves", run.lp_solves);
        node.set("vi_solves", run.vi_solves);
        node.set("pi_solves", run.pi_solves);
        runs_node.push_back(std::move(node));
    }
    root.set("runs", std::move(runs_node));
    return root.dump(indent);
}

}  // namespace socbuf::scenario
