#include "exec/executor.hpp"
#include "scenario/batch_runner.hpp"
#include "scenario/scenario.hpp"
#include "scenario/scenario_io.hpp"
#include "sim/simulator.hpp"
#include "traffic/routing.hpp"
#include "util/contracts.hpp"
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace ss = socbuf::scenario;

namespace {

/// A fast two-run scenario on the Figure 1 sample (tiny system, short
/// horizon) for the determinism and cache tests.
ss::ScenarioSpec small_figure1() {
    ss::ScenarioSpec spec;
    spec.name = "figure1-small";
    spec.testbench = ss::Testbench::kFigure1;
    spec.budgets = {12, 18};
    spec.replications = 2;
    spec.sizing_iterations = 3;
    spec.sim.horizon = 600.0;
    spec.sim.warmup = 60.0;
    spec.sim.seed = 7;
    return spec;
}

void expect_identical(const ss::BatchReport& a, const ss::BatchReport& b) {
    ASSERT_EQ(a.runs.size(), b.runs.size());
    for (std::size_t i = 0; i < a.runs.size(); ++i) {
        const auto& ra = a.runs[i];
        const auto& rb = b.runs[i];
        EXPECT_EQ(ra.scenario, rb.scenario) << "run " << i;
        EXPECT_EQ(ra.variant, rb.variant) << "run " << i;
        EXPECT_EQ(ra.budget, rb.budget) << "run " << i;
        EXPECT_EQ(ra.constant_alloc, rb.constant_alloc) << "run " << i;
        EXPECT_EQ(ra.resized_alloc, rb.resized_alloc) << "run " << i;
        EXPECT_EQ(ra.pre_loss, rb.pre_loss) << "run " << i;
        EXPECT_EQ(ra.post_loss, rb.post_loss) << "run " << i;
        EXPECT_EQ(ra.pre_total, rb.pre_total) << "run " << i;
        EXPECT_EQ(ra.post_total, rb.post_total) << "run " << i;
        EXPECT_EQ(ra.engine_rounds, rb.engine_rounds) << "run " << i;
        EXPECT_EQ(ra.lp_solves, rb.lp_solves) << "run " << i;
        EXPECT_EQ(ra.vi_solves, rb.vi_solves) << "run " << i;
        EXPECT_EQ(ra.pi_solves, rb.pi_solves) << "run " << i;
    }
}

}  // namespace

TEST(ScenarioRegistry, OffersTheNamedPresets) {
    const ss::ScenarioRegistry registry;
    for (const char* name :
         {"figure1", "np-baseline", "figure3", "np-load-sweep",
          "np-bus-speed-sweep", "np-cluster-scaling", "np-cluster-asymmetry",
          "np-bursty-heavy", "insertion-figure1", "insertion-np-search"}) {
        EXPECT_TRUE(registry.contains(name)) << name;
        const auto& spec = registry.get(name);
        EXPECT_EQ(spec.name, name);
        EXPECT_FALSE(spec.description.empty()) << name;
        EXPECT_NO_THROW(spec.validate()) << name;
    }
    EXPECT_EQ(registry.size(), 10u);
    // The insertion presets are the only ones with the search enabled.
    EXPECT_TRUE(registry.get("insertion-figure1").insertion.search);
    EXPECT_TRUE(registry.get("insertion-np-search").insertion.search);
    EXPECT_FALSE(registry.get("figure1").insertion.search);
    EXPECT_FALSE(registry.contains("no-such-scenario"));
    EXPECT_THROW((void)registry.get("no-such-scenario"),
                 socbuf::util::ContractViolation);
}

TEST(ScenarioRegistry, PresetsAreThePapersExperiments) {
    // Figure 3 and Table 1 are catalog presets; these are the paper's
    // settings, and the benches print them as they are.
    const ss::ScenarioRegistry registry;
    const auto expect_paper_run = [](const ss::ScenarioSpec& spec) {
        EXPECT_EQ(spec.testbench, ss::Testbench::kNetworkProcessor)
            << spec.name;
        ASSERT_EQ(spec.variants.size(), 1u) << spec.name;
        EXPECT_TRUE(spec.variants[0] == ss::ScenarioVariant{})
            << spec.name;
        EXPECT_EQ(spec.replications, 10u) << spec.name;
        EXPECT_EQ(spec.sizing_iterations, 10) << spec.name;
        EXPECT_EQ(spec.sim.horizon, 4000.0) << spec.name;
        EXPECT_EQ(spec.sim.warmup, 400.0) << spec.name;
        EXPECT_EQ(spec.sim.seed, 2005u) << spec.name;
        EXPECT_FALSE(spec.insertion.search) << spec.name;
    };

    const ss::ScenarioSpec& figure3 = registry.get("figure3");
    expect_paper_run(figure3);
    EXPECT_EQ(figure3.budgets, std::vector<long>{320});
    EXPECT_TRUE(figure3.evaluate_timeout_policy);
    EXPECT_EQ(figure3.timeout_threshold_scale, 4.0);

    const ss::ScenarioSpec& table1 = registry.get("np-baseline");
    expect_paper_run(table1);
    EXPECT_EQ(table1.budgets, (std::vector<long>{160, 320, 640}));
    EXPECT_FALSE(table1.evaluate_timeout_policy);
}

TEST(ScenarioRegistry, SweepPresetsExpandToTheRightJobCounts) {
    const ss::ScenarioRegistry registry;
    const auto& load = registry.get("np-load-sweep");
    EXPECT_EQ(load.variants.size(), 3u);
    EXPECT_EQ(load.run_count(), 3u);
    EXPECT_EQ(load.job_count(), 15u);
    const auto& baseline = registry.get("np-baseline");
    EXPECT_EQ(baseline.run_count(), 3u);  // three budgets
    const auto& bursty = registry.get("np-bursty-heavy");
    EXPECT_TRUE(bursty.use_modulated_models);
}

TEST(ScenarioRegistry, AddReplacesByName) {
    ss::ScenarioRegistry registry;
    const std::size_t presets = registry.size();
    ss::ScenarioSpec custom = small_figure1();
    registry.add(custom);
    EXPECT_EQ(registry.size(), presets + 1);
    custom.replications = 9;
    registry.add(custom);
    EXPECT_EQ(registry.size(), presets + 1);
    EXPECT_EQ(registry.get("figure1-small").replications, 9u);
}

TEST(ScenarioSpec, BuildsVariantSystems) {
    const ss::ScenarioRegistry registry;
    const auto& scaling = registry.get("np-cluster-scaling");
    const auto small = scaling.build_system(0);   // pe=2
    const auto medium = scaling.build_system(1);  // pe=4
    EXPECT_EQ(small.architecture.processor_count(), 9u);
    EXPECT_EQ(medium.architecture.processor_count(), 17u);
    EXPECT_NE(small.name.find("pe=2"), std::string::npos);
    EXPECT_THROW((void)scaling.build_system(99),
                 socbuf::util::ContractViolation);
}

TEST(ScenarioSpec, EveryClusterScalingVariantIsRoutable) {
    // pe=2 once produced out-of-range chatter endpoints and egress
    // self-flows (which traffic routing rejects) — every preset variant
    // must expand into a fully routable flow set.
    const ss::ScenarioRegistry registry;
    const auto& scaling = registry.get("np-cluster-scaling");
    for (std::size_t v = 0; v < scaling.variants.size(); ++v) {
        const auto system = scaling.build_system(v);
        std::vector<socbuf::traffic::FlowRoute> routes;
        EXPECT_NO_THROW(routes = socbuf::traffic::compute_routes(system))
            << scaling.variants[v].label;
        EXPECT_EQ(routes.size(), system.flows.size())
            << scaling.variants[v].label;
    }
}

TEST(ScenarioRegistry, OffersThePaperSuiteBatch) {
    // The mixed-testbench batch in the CLI defaults: figure1 plus
    // np-baseline expand — in member order — into one runnable batch.
    const ss::ScenarioRegistry registry;
    ASSERT_TRUE(registry.contains_batch("paper-suite"));
    const auto& batch = registry.get_batch("paper-suite");
    EXPECT_FALSE(batch.description.empty());
    const auto specs = registry.expand("paper-suite");
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[0].testbench, ss::Testbench::kFigure1);
    EXPECT_EQ(specs[1].testbench, ss::Testbench::kNetworkProcessor);
    // A plain scenario expands to itself.
    const auto single = registry.expand("figure1");
    ASSERT_EQ(single.size(), 1u);
    EXPECT_EQ(single[0].name, "figure1");
    EXPECT_THROW((void)registry.get_batch("no-such-batch"),
                 socbuf::util::ContractViolation);
    ss::ScenarioRegistry broken;
    EXPECT_THROW(broken.add_batch({"bad", "", {"no-such-scenario"}}),
                 socbuf::util::ContractViolation);
}

TEST(ScenarioSpec, EveryClusterAsymmetryVariantIsRoutable) {
    // The topology sweep bends the testbench hardest: a dropped crypto
    // cluster (three bridges) and asymmetric per-cluster PE counts must
    // still expand into fully routable flow sets.
    const ss::ScenarioRegistry registry;
    const auto& asymmetry = registry.get("np-cluster-asymmetry");
    ASSERT_EQ(asymmetry.variants.size(), 4u);
    for (std::size_t v = 0; v < asymmetry.variants.size(); ++v) {
        const auto system = asymmetry.build_system(v);
        std::vector<socbuf::traffic::FlowRoute> routes;
        EXPECT_NO_THROW(routes = socbuf::traffic::compute_routes(system))
            << asymmetry.variants[v].label;
        EXPECT_EQ(routes.size(), system.flows.size())
            << asymmetry.variants[v].label;
    }
    // bridges=3 really drops a bridge; the asymmetric variants really
    // change the processor count.
    const auto nominal = asymmetry.build_system(0);
    const auto dropped = asymmetry.build_system(1);
    EXPECT_EQ(dropped.architecture.bridge_count(),
              nominal.architecture.bridge_count() - 1);
    const auto ingress_heavy = asymmetry.build_system(2);
    EXPECT_EQ(ingress_heavy.architecture.processor_count(), 17u);  // 6+4+2+4+cp
    EXPECT_NE(ingress_heavy.architecture.bus_count(), 0u);
}

TEST(ScenarioSpec, ValidateRejectsBrokenSpecs) {
    ss::ScenarioSpec spec = small_figure1();
    spec.budgets = {};
    EXPECT_THROW(spec.validate(), socbuf::util::ContractViolation);
    spec = small_figure1();
    spec.replications = 0;
    EXPECT_THROW(spec.validate(), socbuf::util::ContractViolation);
    spec = small_figure1();
    spec.variants[0].np.load_scale = 0.0;
    EXPECT_THROW(spec.validate(), socbuf::util::ContractViolation);
    spec = small_figure1();
    spec.insertion.bridge_site_cost = 0.0;
    EXPECT_THROW(spec.validate(), socbuf::util::ContractViolation);
    spec = small_figure1();
    spec.insertion.candidates = {""};
    EXPECT_THROW(spec.validate(), socbuf::util::ContractViolation);
}

TEST(BatchRunner, InsertionSearchBeatsOrMatchesPresetAtAnyWorkerCount) {
    // The tentpole contract end to end: a searched placement is never
    // worse than the all-selected preset at the same budget, the report
    // carries the search evidence, and the chosen placement (with the
    // whole report) is bit-identical at threads 1, 2 and 4.
    ss::ScenarioSpec spec = small_figure1();
    spec.name = "figure1-insertion";
    spec.budgets = {14};
    spec.replications = 1;
    spec.sizing_iterations = 2;
    spec.sim.horizon = 300.0;
    spec.sim.warmup = 30.0;
    spec.insertion.search = true;  // all four directional bridge sites

    socbuf::exec::Executor serial(1);
    ss::BatchRunner runner(serial);
    const ss::BatchReport reference = runner.run(spec);
    ASSERT_EQ(reference.runs.size(), 1u);
    const auto& run = reference.runs[0];
    EXPECT_TRUE(run.insertion.searched);
    EXPECT_TRUE(run.insertion.exhaustive);  // 4 candidates, 16 plans
    EXPECT_EQ(run.insertion.plans_evaluated, 16u);
    EXPECT_LE(run.insertion.searched_loss, run.insertion.preset_loss);
    EXPECT_EQ(run.insertion.selected_sites.size() +
                  run.insertion.deselected_sites.size(),
              4u);

    for (const std::size_t threads : {2UL, 4UL}) {
        socbuf::exec::Executor exec(threads);
        ss::BatchRunner parallel(exec);
        ss::BatchReport got = parallel.run(spec);
        got.workers = reference.workers;
        EXPECT_EQ(got.to_json(), reference.to_json())
            << "threads=" << threads;
    }
}

TEST(BatchRunner, InsertionCandidatesResolveByNameAndRejectUnknowns) {
    ss::ScenarioSpec spec = small_figure1();
    spec.name = "figure1-insertion-subset";
    spec.budgets = {14};
    spec.replications = 1;
    spec.sizing_iterations = 2;
    spec.sim.horizon = 300.0;
    spec.sim.warmup = 30.0;
    spec.insertion.search = true;
    spec.insertion.candidates = {"bf:b>f", "fg:f>g"};

    socbuf::exec::Executor serial(1);
    ss::BatchRunner runner(serial);
    const ss::BatchReport report = runner.run(spec);
    ASSERT_EQ(report.runs.size(), 1u);
    // Only the named pair is searched: 2 candidates = 4 plans; the other
    // two directional sites stay selected in every plan.
    EXPECT_EQ(report.runs[0].insertion.plans_evaluated, 4u);
    EXPECT_EQ(report.runs[0].insertion.selected_sites.size() +
                  report.runs[0].insertion.deselected_sites.size(),
              2u);

    // Unresolvable names are rejected before any job runs, naming the
    // JSON path: an unknown site, and a processor site (not a bridge).
    ss::BatchRunner reject(serial);
    for (const char* bad : {"no-such-site", "1"}) {
        ss::ScenarioSpec unknown = spec;
        unknown.insertion.candidates = {"bf:b>f", bad};
        try {
            (void)reject.run(unknown);
            FAIL() << "candidate '" << bad << "' must be rejected";
        } catch (const ss::ScenarioIoError& error) {
            EXPECT_EQ(error.path(), "$.insertion.candidates[1]") << bad;
        }
    }
}

TEST(BatchRunner, RejectsABudgetBelowTheSiteCountBeforeRunning) {
    // Figure 1 has 9 traffic-carrying buffer sites; every allocation
    // gives each one slot, so a budget of 8 cannot run. The check names
    // the offending budget's JSON path; 9 runs.
    ss::ScenarioSpec spec = small_figure1();
    spec.budgets = {9, 8};
    spec.replications = 1;
    spec.sizing_iterations = 1;
    socbuf::exec::Executor serial(1);
    ss::BatchRunner runner(serial);
    try {
        (void)runner.run(spec);
        FAIL() << "budget 8 must be rejected";
    } catch (const ss::ScenarioIoError& error) {
        EXPECT_EQ(error.path(), "$.budgets[1]");
    }
    spec.budgets = {9};
    EXPECT_EQ(runner.run(spec).runs.size(), 1u);
}

TEST(BatchRunner, MixedSpecBatchBitIdenticalForAnyWorkerCount) {
    // The pipelined task graph must fold identically however the sizing
    // and evaluation jobs interleave: a mixed batch with *different*
    // replication counts, budgets and per-round engine replications per
    // spec, compared as full JSON (everything serialized, cache counters
    // included) across worker counts.
    ss::ScenarioSpec a = small_figure1();
    a.name = "mixed-a";
    a.budgets = {12, 18};
    a.replications = 2;
    ss::ScenarioSpec b = small_figure1();
    b.name = "mixed-b";
    b.budgets = {16};
    b.replications = 3;
    b.sizing_eval_replications = 2;  // engine fans its round sims too
    const std::vector<ss::ScenarioSpec> specs{a, b};

    socbuf::exec::Executor serial(1);
    ss::BatchRunner runner(serial);
    ss::BatchReport reference = runner.run(specs);
    ASSERT_EQ(reference.runs.size(), 3u);
    for (const std::size_t threads : {2UL, 4UL}) {
        socbuf::exec::Executor exec(threads);
        ss::BatchRunner parallel(exec);
        ss::BatchReport got = parallel.run(specs);
        EXPECT_EQ(got.workers, threads);
        got.workers = reference.workers;  // the one width-reflecting field
        EXPECT_EQ(got.to_json(), reference.to_json())
            << "threads=" << threads;
    }
}

TEST(BatchRunner, PipelinedEvaluationOverlapsSizing) {
    // Six sizing jobs on four workers: the first finisher's evaluation
    // replications are queued (and start) while later sizing jobs are
    // still in flight — the stage barrier is gone. Serial execution, by
    // contrast, never has a sizing run in flight when an eval starts.
    ss::ScenarioSpec spec = small_figure1();
    spec.budgets = {10, 12, 14, 16, 18, 20};
    spec.replications = 4;

    socbuf::exec::Executor serial(1);
    ss::BatchRunner serial_runner(serial);
    const auto serial_report = serial_runner.run(spec);
    EXPECT_EQ(serial_report.eval_overlap, 0u);

    socbuf::exec::Executor exec(4);
    ss::BatchRunner parallel_runner(exec);
    const auto parallel_report = parallel_runner.run(spec);
    EXPECT_GT(parallel_report.eval_overlap, 0u);
    // Overlap is a diagnostic, never part of the serialized report.
    ss::BatchReport normalized = parallel_report;
    normalized.workers = serial_report.workers;
    normalized.eval_overlap = serial_report.eval_overlap;
    EXPECT_EQ(normalized.to_json(), serial_report.to_json());
}

TEST(BatchRunner, PriorityScheduledBatchesAreBitIdenticalAtAnyWidth) {
    // Priority scheduling (evaluations claimed ahead of still-queued
    // sizing jobs, sizing jobs submitted longest-first) moves only the
    // schedule, never the report. A mixed batch — including a spec that
    // evaluates the timeout policy with *fanned* calibration sims — must
    // produce byte-identical JSON at threads 1, 2 and 4.
    ss::ScenarioSpec plain = small_figure1();
    plain.name = "prio-plain";
    plain.budgets = {12, 16, 20};
    plain.replications = 3;
    ss::ScenarioSpec timeout = small_figure1();
    timeout.name = "prio-timeout";
    timeout.budgets = {14};
    timeout.replications = 2;
    timeout.evaluate_timeout_policy = true;
    timeout.calibration_replications = 3;  // fans inside the sizing job
    // A costlier job (bigger testbench) expanded last, so longest-first
    // submission genuinely reorders the batch.
    ss::ScenarioSpec big = small_figure1();
    big.name = "prio-big";
    big.testbench = ss::Testbench::kNetworkProcessor;
    big.budgets = {160};
    big.replications = 1;
    const std::vector<ss::ScenarioSpec> specs{plain, timeout, big};

    socbuf::exec::Executor serial(1);
    ss::BatchRunner serial_runner(serial);
    const ss::BatchReport reference = serial_runner.run(specs);
    EXPECT_GT(reference.runs[3].timeout_total, 0.0);

    for (const std::size_t threads : {1UL, 2UL, 4UL}) {
        socbuf::exec::Executor exec(threads);
        ss::BatchRunner runner(exec);
        ss::BatchReport report = runner.run(specs);
        // Evaluated something, so the latency diagnostic is set.
        EXPECT_GE(report.first_eval_latency_s, 0.0) << "threads=" << threads;
        report.workers = reference.workers;
        EXPECT_EQ(report.to_json(), reference.to_json())
            << "threads=" << threads;
    }
}

TEST(BatchRunner, FannedCalibrationMatchesTheSerialCalibrationPath) {
    // One calibration replication (the default) must keep the timeout
    // column bit-identical to the pre-fan-out path: the threshold the
    // runner stores is exactly scale times the overall mean wait of one
    // no-timeout simulation of the constant allocation.
    ss::ScenarioSpec spec = small_figure1();
    spec.name = "calib-serial";
    spec.budgets = {14};
    spec.replications = 1;
    spec.evaluate_timeout_policy = true;

    socbuf::exec::Executor serial(1);
    ss::BatchRunner runner(serial);
    const ss::BatchReport report = runner.run(spec);
    ASSERT_EQ(report.runs.size(), 1u);

    const auto system = spec.build_system(0);
    socbuf::sim::SimConfig no_timeout =
        spec.sizing_options(spec.budgets[0]).sim;
    no_timeout.timeout_enabled = false;
    const double expected =
        spec.timeout_threshold_scale *
        socbuf::sim::simulate(system, report.runs[0].constant_alloc,
                              no_timeout)
            .overall_mean_wait();
    EXPECT_EQ(report.runs[0].timeout_threshold, expected);
}

TEST(BatchRunner, RowsFoldReplicationsLikeReplicateLosses) {
    // A row's replication means come from the one replication-mean fold:
    // pre_loss / pre_total and post_loss / post_total must equal
    // sim::replicate_losses on the same system, allocation and seeds, bit
    // for bit, whatever the width of either executor. Replication 0 of
    // the row reuses the engine's own `before` / `after` simulations, so
    // this also pins that they ran at the spec's SimConfig.
    ss::ScenarioSpec spec = small_figure1();
    spec.name = "fold-pin";
    spec.budgets = {14};
    spec.replications = 3;
    const auto system = spec.build_system(0);

    for (const std::size_t workers : {1UL, 4UL}) {
        socbuf::exec::Executor exec(workers);
        ss::BatchRunner runner(exec);
        const ss::BatchReport report = runner.run(spec);
        ASSERT_EQ(report.runs.size(), 1u);
        const ss::ScenarioRunResult& row = report.runs[0];

        const auto pre = socbuf::sim::replicate_losses(
            system, row.constant_alloc, spec.sim, spec.replications, exec);
        EXPECT_EQ(row.pre_loss, pre.mean_lost_per_processor)
            << "workers=" << workers;
        EXPECT_EQ(row.pre_total, pre.mean_total_lost)
            << "workers=" << workers;

        const auto post = socbuf::sim::replicate_losses(
            system, row.resized_alloc, spec.sim, spec.replications, exec);
        EXPECT_EQ(row.post_loss, post.mean_lost_per_processor)
            << "workers=" << workers;
        EXPECT_EQ(row.post_total, post.mean_total_lost)
            << "workers=" << workers;
    }
}

TEST(BatchReport, CacheDisabledIsMarkedInJson) {
    socbuf::exec::Executor serial(1);

    ss::BatchRunner cached(serial);
    const auto with_cache = cached.run(small_figure1());
    const auto enabled_json =
        socbuf::util::JsonValue::parse(with_cache.to_json());
    EXPECT_TRUE(enabled_json.at("solve_cache").at("enabled").as_bool());
    EXPECT_TRUE(enabled_json.at("solve_cache").contains("hit_rate"));
    EXPECT_TRUE(enabled_json.at("solve_cache").contains("bytes_resident"));

    ss::BatchOptions options;
    options.use_solve_cache = false;
    ss::BatchRunner uncached(serial, options);
    const auto without_cache = uncached.run(small_figure1());
    EXPECT_FALSE(without_cache.cache_enabled);
    const auto disabled_json =
        socbuf::util::JsonValue::parse(without_cache.to_json());
    // "disabled" must not masquerade as "enabled but cold".
    EXPECT_FALSE(disabled_json.at("solve_cache").at("enabled").as_bool());
    EXPECT_FALSE(disabled_json.at("solve_cache").contains("hits"));
    EXPECT_FALSE(disabled_json.at("solve_cache").contains("hit_rate"));
}

TEST(BatchRunner, BitIdenticalForAnyWorkerCount) {
    socbuf::exec::Executor serial(1);
    ss::BatchRunner runner(serial);
    const auto reference = runner.run(small_figure1());
    ASSERT_EQ(reference.runs.size(), 2u);
    for (const std::size_t threads : {2UL, 4UL}) {
        socbuf::exec::Executor exec(threads);
        ss::BatchRunner parallel(exec);
        const auto got = parallel.run(small_figure1());
        EXPECT_EQ(got.workers, threads);
        expect_identical(got, reference);
        // The cache counters are part of the contract too: one solve per
        // distinct key, whatever the interleaving.
        EXPECT_EQ(got.cache.hits, reference.cache.hits);
        EXPECT_EQ(got.cache.misses, reference.cache.misses);
    }
}

TEST(BatchRunner, SharedSolveCacheHitsWithoutChangingResults) {
    // Two scenarios whose (testbench, budget, sim) coincide produce
    // identical subsystem CTMDPs; the batch-wide cache must solve each
    // once and serve the second scenario entirely from memory.
    ss::ScenarioSpec first = small_figure1();
    ss::ScenarioSpec second = small_figure1();
    second.name = "figure1-small-again";

    socbuf::exec::Executor serial(1);
    ss::BatchRunner cached(serial);
    const auto with_cache = cached.run({first, second});
    ASSERT_EQ(with_cache.runs.size(), 4u);
    EXPECT_GT(with_cache.cache.hits, 0u);
    EXPECT_GT(with_cache.cache.misses, 0u);
    EXPECT_GT(with_cache.cache.hit_rate(), 0.0);
    EXPECT_LT(with_cache.cache.hit_rate(), 1.0);
    // Twin scenarios, twin results.
    EXPECT_EQ(with_cache.runs[0].resized_alloc,
              with_cache.runs[2].resized_alloc);

    ss::BatchOptions no_cache;
    no_cache.use_solve_cache = false;
    ss::BatchRunner uncached(serial, no_cache);
    const auto without_cache = uncached.run({first, second});
    EXPECT_EQ(without_cache.cache.lookups(), 0u);
    expect_identical(with_cache, without_cache);
}

TEST(BatchRunner, RunsMultipleSpecsInExpansionOrder) {
    ss::ScenarioSpec a = small_figure1();
    a.name = "a";
    a.budgets = {10};
    ss::ScenarioSpec b = small_figure1();
    b.name = "b";
    b.budgets = {14, 16};
    socbuf::exec::Executor exec(2);
    ss::BatchRunner runner(exec);
    const auto report = runner.run({a, b});
    ASSERT_EQ(report.runs.size(), 3u);
    EXPECT_EQ(report.runs[0].scenario, "a");
    EXPECT_EQ(report.runs[0].budget, 10);
    EXPECT_EQ(report.runs[1].scenario, "b");
    EXPECT_EQ(report.runs[1].budget, 14);
    EXPECT_EQ(report.runs[2].budget, 16);
    // Every run carries a full evaluation.
    for (const auto& run : report.runs) {
        EXPECT_EQ(run.replications, 2u);
        EXPECT_FALSE(run.pre_loss.empty());
        EXPECT_EQ(run.pre_loss.size(), run.post_loss.size());
        EXPECT_GT(run.engine_rounds, 0u);
        EXPECT_GT(run.lp_solves + run.vi_solves + run.pi_solves, 0u);
    }
}

TEST(BatchReport, SerializesToJsonAndCsv) {
    socbuf::exec::Executor serial(1);
    ss::BatchRunner runner(serial);
    const auto report = runner.run(small_figure1());

    const auto parsed = socbuf::util::JsonValue::parse(report.to_json());
    EXPECT_EQ(parsed.at("workers").as_number(), 1.0);
    EXPECT_EQ(parsed.at("runs").size(), 2u);
    const auto& first = parsed.at("runs").at(0);
    EXPECT_EQ(first.at("scenario").as_string(), "figure1-small");
    EXPECT_EQ(first.at("budget").as_number(), 12.0);
    EXPECT_EQ(first.at("pre_total").as_number(),
              report.runs[0].pre_total);
    EXPECT_EQ(first.at("pre_loss").size(), report.runs[0].pre_loss.size());
    EXPECT_TRUE(parsed.at("solve_cache").contains("hit_rate"));

    const std::string csv = report.to_csv();
    EXPECT_NE(csv.find("scenario,variant,budget"), std::string::npos);
    EXPECT_NE(csv.find("figure1-small"), std::string::npos);
    // Two runs + header = three lines.
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
}
