// B1 — the scenario & batch-execution layer, measured. Three claims:
//
//   1. cache — a Table 1-style budget sweep re-solves identical subsystem
//      CTMDPs (the round-0 models coincide across budgets once caps clamp
//      to model_cap, and sweep scenarios overlap); each batch's
//      SolveCache turns those into hits, reported as a hit rate,
//   2. scaling — the same batch gets faster with more workers on one
//      shared pool (threads = 1/2/4 wall-clock and speedup),
//   3. determinism — every thread count produces bit-identical batch
//      reports (the exec-layer contract lifted to whole batches), shown
//      in the table rather than assumed.
//
// Everything runs through the socbuf::Session facade (one object owning
// the executor and the registry) — the same entry point socbuf_cli and
// the Figure 3 / Table 1 benches use. `--json <file>` writes the same
// rows — cached vs uncached, threads 1/2/4 — as one JSON document (the
// perf-trajectory format under BENCH_*.json); the google-benchmark loop
// is skipped in that mode.
#include "exec/executor.hpp"
#include "scenario/scenario.hpp"
#include "session/session.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace {

using socbuf::Session;
using socbuf::SessionOptions;
using socbuf::scenario::BatchReport;
using socbuf::scenario::ScenarioSpec;

/// The np-baseline budget sweep (Table 1's rows) at a bench-friendly
/// horizon: 3 sizing jobs + 3 x reps evaluation jobs per run.
ScenarioSpec sweep_spec() {
    ScenarioSpec spec =
        socbuf::scenario::ScenarioRegistry().get("np-baseline");
    spec.replications = 5;
    spec.sizing_iterations = 6;
    spec.sim.horizon = 2000.0;
    spec.sim.warmup = 200.0;
    return spec;
}

double seconds_of(const std::function<void()>& body) {
    const auto start = std::chrono::steady_clock::now();
    body();
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(stop - start).count();
}

bool identical_runs(const BatchReport& a, const BatchReport& b) {
    if (a.runs.size() != b.runs.size()) return false;
    for (std::size_t i = 0; i < a.runs.size(); ++i) {
        if (a.runs[i].pre_loss != b.runs[i].pre_loss) return false;
        if (a.runs[i].post_loss != b.runs[i].post_loss) return false;
        if (a.runs[i].pre_total != b.runs[i].pre_total) return false;
        if (a.runs[i].post_total != b.runs[i].post_total) return false;
        if (a.runs[i].resized_alloc != b.runs[i].resized_alloc) return false;
    }
    return true;
}

/// One width's row of the scaling table.
struct ScalingRow {
    std::size_t threads = 0;
    double batch_s = 0.0;
    double speedup = 0.0;
    BatchReport report;
    bool identical = false;
};

/// Everything the bench reports, measured once on the budget sweep.
struct BatchMeasurement {
    double cached_s = 0.0;
    double uncached_s = 0.0;
    BatchReport cached;
    std::vector<ScalingRow> scaling;
};

BatchMeasurement measure(const ScenarioSpec& spec) {
    BatchMeasurement out;
    // Cache effect at fixed threads: the same sweep with and without the
    // batch's solve cache.
    {
        Session session({1});
        out.cached_s = seconds_of([&] { out.cached = session.run(spec); });
    }
    {
        SessionOptions options;
        options.threads = 1;
        options.use_solve_cache = false;
        Session session(options);
        out.uncached_s = seconds_of([&] { (void)session.run(spec); });
    }
    double base_s = 0.0;
    for (const std::size_t threads : {1UL, 2UL, 4UL}) {
        ScalingRow row;
        row.threads = threads;
        Session session({threads});
        row.batch_s = seconds_of([&] { row.report = session.run(spec); });
        if (threads == 1) base_s = row.batch_s;
        row.speedup = base_s / row.batch_s;
        row.identical = identical_runs(row.report, out.cached);
        out.scaling.push_back(std::move(row));
    }
    return out;
}

void print_batch_scaling() {
    std::printf("\n=== B1: batch scenario execution (hardware threads: %zu) "
                "===\n",
                socbuf::exec::resolve_thread_count(0));
    const ScenarioSpec spec = sweep_spec();
    const BatchMeasurement m = measure(spec);
    std::printf(
        "budget sweep %ld/%ld/%ld: solve cache %zu hits / %zu misses "
        "(%.0f%% hit rate); serial wall-clock %.3fs cached vs %.3fs "
        "uncached\n",
        spec.budgets[0], spec.budgets[1], spec.budgets[2],
        m.cached.cache.hits, m.cached.cache.misses,
        100.0 * m.cached.cache.hit_rate(), m.cached_s, m.uncached_s);

    socbuf::util::Table table({"threads", "batch [s]", "speedup",
                               "cache hit rate", "identical"});
    for (const ScalingRow& row : m.scaling)
        table.add_row(
            {std::to_string(row.threads),
             socbuf::util::format_fixed(row.batch_s, 3),
             socbuf::util::format_fixed(row.speedup, 2) + "x",
             socbuf::util::format_fixed(
                 100.0 * row.report.cache.hit_rate(), 0) +
                 "%",
             row.identical ? "yes" : "NO"});
    std::printf("%s", table.to_string().c_str());
}

/// The --json measurement: the table mode's rows as one document.
void write_json_report(const std::string& path) {
    namespace sj = socbuf::util;
    const ScenarioSpec spec = sweep_spec();
    const BatchMeasurement m = measure(spec);

    auto cache = sj::JsonValue::object();
    cache.set("cached_s", m.cached_s);
    cache.set("uncached_s", m.uncached_s);
    cache.set("hits", m.cached.cache.hits);
    cache.set("misses", m.cached.cache.misses);
    cache.set("hit_rate", m.cached.cache.hit_rate());
    cache.set("bytes_resident", m.cached.cache.bytes_resident);
    std::printf("budget sweep %ld/%ld/%ld: %.3fs cached vs %.3fs uncached "
                "(%.0f%% hit rate)\n",
                spec.budgets[0], spec.budgets[1], spec.budgets[2],
                m.cached_s, m.uncached_s, 100.0 * m.cached.cache.hit_rate());

    auto scaling = sj::JsonValue::array();
    for (const ScalingRow& row : m.scaling) {
        auto node = sj::JsonValue::object();
        node.set("threads", row.threads);
        node.set("batch_s", row.batch_s);
        node.set("speedup", row.speedup);
        node.set("identical_results", row.identical);
        scaling.push_back(std::move(node));
        std::printf("threads %zu: %.3fs (%.2fx), results %s\n",
                    row.threads, row.batch_s, row.speedup,
                    row.identical ? "identical" : "DIFFER");
    }

    auto root = sj::JsonValue::object();
    root.set("bench", std::string("batch_scenarios"));
    auto budgets = sj::JsonValue::array();
    for (const long b : spec.budgets) budgets.push_back(b);
    root.set("budgets", std::move(budgets));
    root.set("cached_vs_uncached", std::move(cache));
    root.set("threads", std::move(scaling));
    std::ofstream out(path);
    out << root.dump(2) << "\n";
    std::printf("wrote %s\n", path.c_str());
}

void BM_BatchBudgetSweep(benchmark::State& state) {
    ScenarioSpec spec = sweep_spec();
    spec.replications = 3;
    spec.sim.horizon = 1000.0;
    spec.sim.warmup = 100.0;
    const auto threads = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        Session session({threads});
        auto report = session.run(spec);
        benchmark::DoNotOptimize(report);
    }
}
BENCHMARK(BM_BatchBudgetSweep)->Arg(1)->Arg(2)->Arg(4)->Unit(
    benchmark::kMillisecond);

void BM_SolveCacheOnOff(benchmark::State& state) {
    ScenarioSpec spec = sweep_spec();
    spec.replications = 1;
    spec.sim.horizon = 1000.0;
    spec.sim.warmup = 100.0;
    const bool use_cache = state.range(0) != 0;
    for (auto _ : state) {
        SessionOptions options;
        options.threads = 1;
        options.use_solve_cache = use_cache;
        Session session(options);
        auto report = session.run(spec);
        benchmark::DoNotOptimize(report);
    }
}
BENCHMARK(BM_SolveCacheOnOff)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    std::string json_path;
    for (int i = 1; i + 1 < argc; ++i)
        if (std::string(argv[i]) == "--json") json_path = argv[i + 1];
    if (!json_path.empty()) {
        // JSON mode is the CI/perf-trajectory entry point: one
        // structured measurement, no google-benchmark loop.
        write_json_report(json_path);
        return 0;
    }
    print_batch_scaling();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
