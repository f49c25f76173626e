// Tests of the benchmark's own logic: span self times, the ratio metrics
// and their bases, the per-sample output check, the workload generator,
// and the traced replay against a Session report on small scenarios.
#include "check.hpp"
#include "metrics.hpp"
#include "replay.hpp"
#include "scenario/scenario_io.hpp"
#include "session/session.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>

namespace pipebench {
namespace {

namespace scenario = socbuf::scenario;

Span span(std::int64_t id, std::int64_t parent, const std::string& layer,
          std::int64_t start, std::int64_t end) {
    Span s;
    s.id = id;
    s.parent = parent;
    s.layer = layer;
    s.name = layer + ".call";
    s.start_ns = start;
    s.end_ns = end;
    return s;
}

TEST(SelfTime, SubtractsTheUnionOfChildrenClippedToTheParent) {
    const std::vector<Span> spans{
        span(0, -1, "root", 0, 100),
        span(1, 0, "a", 10, 40),
        span(2, 0, "b", 30, 60),   // overlaps a: a parallel sibling
        span(3, 1, "c", 15, 20),   // grandchild: only a loses it
        span(4, 0, "d", 90, 120),  // runs past the parent's end
    };
    const std::vector<double> self = self_times(spans);
    ASSERT_EQ(self.size(), spans.size());
    EXPECT_DOUBLE_EQ(self[0], 40e-9);  // 100 - |[10,60] u [90,100]|
    EXPECT_DOUBLE_EQ(self[1], 25e-9);
    EXPECT_DOUBLE_EQ(self[2], 30e-9);
    EXPECT_DOUBLE_EQ(self[3], 5e-9);
    EXPECT_DOUBLE_EQ(self[4], 30e-9);

    const auto by_layer = layer_self_times(spans);
    EXPECT_DOUBLE_EQ(by_layer.at("root"), 40e-9);
    EXPECT_DOUBLE_EQ(by_layer.at("a"), 25e-9);
}

TEST(SelfTime, SequentialChildrenSumToTheParentWithoutGaps) {
    const std::vector<Span> spans{span(0, -1, "root", 0, 30),
                                  span(1, 0, "x", 0, 10),
                                  span(2, 0, "x", 10, 30)};
    const auto by_layer = layer_self_times(spans);
    EXPECT_DOUBLE_EQ(by_layer.at("root"), 0.0);
    EXPECT_DOUBLE_EQ(by_layer.at("x"), 30e-9);
}

TEST(Tracer, NestedScopesAndAdoptedTasksRecordTheirParents) {
    Tracer tracer;
    std::int64_t outer_id = -1;
    {
        const Tracer::Scope outer(tracer, "core", "core.sizing");
        outer_id = Tracer::current();
        { const Tracer::Scope inner(tracer, "sim", "sim.simulate"); }
    }
    {
        const Tracer::Adopt adopt(outer_id);
        const Tracer::Scope task(tracer, "ctmdp", "ctmdp.solve");
    }
    EXPECT_EQ(Tracer::current(), -1);
    const std::vector<Span> spans = tracer.spans();
    ASSERT_EQ(spans.size(), 3U);
    EXPECT_EQ(spans[0].parent, -1);
    EXPECT_EQ(spans[1].parent, spans[0].id);
    EXPECT_EQ(spans[2].parent, spans[0].id);
    EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
    EXPECT_LE(spans[1].end_ns, spans[0].end_ns);
    const std::string events = Tracer::chrome_events(spans, 1);
    EXPECT_NE(events.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(events.find("\"cat\":\"sim\""), std::string::npos);
}

TEST(Ratios, AreTakenAgainstTheirStatedBases) {
    const Ratios r = ratio_metrics(/*serial_wall_s=*/8.0, /*wall_s=*/2.0,
                                   /*workers=*/4, /*traced_wall_s=*/8.8,
                                   /*layer_self_s=*/8.0);
    EXPECT_DOUBLE_EQ(r.speedup, 4.0);          // serial / wide
    EXPECT_DOUBLE_EQ(r.efficiency, 1.0);       // speedup / workers
    EXPECT_NEAR(r.overhead, 0.1, 1e-12);       // traced / serial - 1
    EXPECT_NEAR(r.coverage, 8.0 / 8.8, 1e-12); // self / traced wall
    const Ratios zero = ratio_metrics(1.0, 0.0, 4, 0.0, 0.0);
    EXPECT_EQ(zero.speedup, 0.0);
    EXPECT_EQ(zero.coverage, 0.0);
}

TEST(Median, OddAndEvenCounts) {
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_THROW((void)median({}), std::invalid_argument);
}

scenario::BatchReport tiny_report(std::size_t workers) {
    scenario::BatchReport report;
    report.workers = workers;
    scenario::ScenarioRunResult run;
    run.scenario = "figure1";
    run.budget = 24;
    run.replications = 1;
    run.constant_alloc = {4, 4, 4};
    run.resized_alloc = {2, 5, 5};
    run.post_total = 12.5;
    report.runs.push_back(run);
    report.cache.hits = 3;
    report.cache.misses = 7;
    return report;
}

TEST(OutputCheck, PassesWhenOnlyWorkersDiffer) {
    EXPECT_TRUE(check_sample(tiny_report(1), tiny_report(4)).empty());
}

TEST(OutputCheck, FiresOnAPerturbedReport) {
    scenario::BatchReport perturbed = tiny_report(4);
    perturbed.runs[0].post_total = 12.500000000000002;
    EXPECT_EQ(check_sample(tiny_report(1), perturbed).size(), 1U);

    perturbed = tiny_report(4);
    perturbed.cache.misses = 8;
    EXPECT_EQ(check_sample(tiny_report(1), perturbed).size(), 1U);
}

TEST(OutputCheck, FiresWhenTheSearchLosesToThePreset) {
    scenario::BatchReport report = tiny_report(1);
    report.runs[0].insertion.searched = true;
    report.runs[0].insertion.preset_loss = 10.0;
    report.runs[0].insertion.searched_loss = 10.0;
    EXPECT_TRUE(check_sample(report, report).empty());
    report.runs[0].insertion.searched_loss = 10.5;
    EXPECT_FALSE(check_sample(report, report).empty());
}

TEST(ReplayCheck, ComparesAllocationsLossAndCacheCountsExactly) {
    const scenario::BatchReport report = tiny_report(1);
    std::vector<ReplayRun> runs(1);
    runs[0].constant_alloc = {4, 4, 4};
    runs[0].resized_alloc = {2, 5, 5};
    runs[0].post_total = 12.5;
    EXPECT_TRUE(check_replay(report, runs, 3, 7).empty());
    EXPECT_EQ(check_replay(report, runs, 4, 6).size(), 1U);
    runs[0].resized_alloc = {3, 4, 5};
    runs[0].post_total = 12.0;
    EXPECT_EQ(check_replay(report, runs, 3, 7).size(), 2U);
    EXPECT_EQ(check_replay(report, {}, 3, 7).size(), 1U);
}

TEST(Workloads, CarryTheSeedTheTrimAndABatchPreset) {
    const socbuf::util::JsonValue doc = make_workload("vi-cluster", 7);
    const auto parsed = scenario::document_from_json(doc);
    ASSERT_EQ(parsed.scenarios.size(), 1U);
    const scenario::ScenarioSpec& spec = parsed.scenarios[0];
    EXPECT_EQ(spec.sim.seed, 7U);
    ASSERT_EQ(spec.variants.size(), 1U);
    EXPECT_EQ(spec.variants[0].label, "pe=6");
    EXPECT_EQ(spec.sizing_iterations, 2);
    EXPECT_TRUE(spec.evaluate_timeout_policy);
    ASSERT_EQ(parsed.batches.size(), 1U);
    EXPECT_EQ(parsed.batches[0].name, "vi-cluster");

    const auto search = scenario::document_from_json(
        make_workload("insertion-search", kDefaultSeed));
    ASSERT_EQ(search.scenarios.size(), 2U);
    for (const auto& s : search.scenarios) {
        EXPECT_TRUE(s.insertion.search);
        EXPECT_EQ(s.sim.seed, kDefaultSeed);
    }

    EXPECT_EQ(make_workload("insertion-search", 1).dump(),
              make_workload("insertion-search", 1).dump());
    EXPECT_NE(make_workload("insertion-search", 1).dump(),
              make_workload("insertion-search", 2).dump());
    EXPECT_THROW((void)make_workload("no-such-workload", 1),
                 std::invalid_argument);
}

/// Small versions of the workloads' scenarios: the replay must match the
/// Session report bit for bit at 1 and at 2 threads.
std::vector<scenario::ScenarioSpec> small_specs() {
    const scenario::ScenarioRegistry registry;
    std::vector<scenario::ScenarioSpec> specs{
        registry.get("figure1"), registry.get("insertion-figure1")};
    for (auto& spec : specs) {
        spec.sim.horizon = 300.0;
        spec.sim.warmup = 30.0;
        spec.sizing_iterations = 3;
        spec.replications = 2;
    }
    specs[0].evaluate_timeout_policy = true;
    specs[0].sizing_eval_replications = 2;
    return specs;
}

TEST(Replay, ReproducesTheSessionReportBitForBit) {
    const auto specs = small_specs();
    socbuf::SessionOptions options;
    options.threads = 1;
    socbuf::Session session(options);
    const scenario::BatchReport report = session.run(specs);
    for (const std::size_t threads : {1U, 2U}) {
        const ReplayResult result = replay(specs, threads);
        EXPECT_TRUE(check_replay(report, result.runs, result.cache.hits,
                                 result.cache.misses)
                        .empty())
            << "threads " << threads;
        EXPECT_GT(result.plans_evaluated, 0U);
        EXPECT_GT(result.sim_runs, 0U);
        EXPECT_EQ(result.solves.size(), result.cache.lookups());
    }
}

TEST(Replay, LayerMetricsCoverTheTracedWall) {
    const auto specs = small_specs();
    const ReplayResult serial = replay(specs, 1);
    const ReplayResult wide = replay(specs, 2);
    SessionTimes times;
    times.serial_wall_s = serial.wall_s;
    times.wall_s = wide.wall_s;
    times.workers = 2;
    std::map<std::string, double> m;
    for (const Metric& metric : layer_metrics(serial, wide, times))
        m[metric.name] = metric.value;
    EXPECT_GT(m.at("sim.s"), 0.0);
    EXPECT_GT(m.at("insertion.self_s"), 0.0);
    EXPECT_GT(m.at("sim.calibrate_s"), 0.0);
    EXPECT_GT(m.at("exec.tasks"), 0.0);
    EXPECT_GT(m.at("trace.coverage"), 0.5);
    EXPECT_LE(m.at("trace.coverage"), 1.0);
    EXPECT_DOUBLE_EQ(m.at("ctmdp.lookups"),
                     static_cast<double>(serial.cache.lookups()));
    EXPECT_DOUBLE_EQ(m.at("insertion.evaluated_share"),
                     m.at("insertion.plans_evaluated") /
                         m.at("insertion.plan_space"));
}

}  // namespace
}  // namespace pipebench
