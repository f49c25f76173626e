// socbuf::Session — the facade contract: one object behind run /
// run_batch / load_file / export_catalog, reports bit-identical for any
// thread count, and a file-loaded spec indistinguishable from the
// compiled preset.
#include "session/session.hpp"

#include "scenario/builder.hpp"
#include "scenario/scenario_io.hpp"
#include "util/contracts.hpp"
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace ss = socbuf::scenario;
using socbuf::Session;
using socbuf::SessionOptions;
using socbuf::util::JsonValue;

namespace {

/// A fast two-run scenario on the Figure 1 sample (tiny system, short
/// horizon), as in scenario_test.
ss::ScenarioSpec small_figure1(const std::string& name = "figure1-small") {
    return ss::ScenarioBuilder(name)
        .testbench(ss::Testbench::kFigure1)
        .budgets({12, 18})
        .replications(2)
        .sizing_iterations(3)
        .horizon(600.0, 60.0)
        .seed(7)
        .build();
}

/// A network-processor scenario whose ingress-bus CTMDP lands on the VI
/// rung past the fan gate: the default pe_per_cluster = 4 and
/// model_cap = 3 give (3 + 1)^(4 + 1) = 1024 states, which is past
/// kDefaultPiStateLimit (768) *and* meets the default
/// parallel_min_states (1024) — so a multi-thread session actually runs
/// the executor-fanned Jacobi sweep on it.
ss::ScenarioSpec vi_rung_np(const std::string& name = "np-vi-rung") {
    return ss::ScenarioBuilder(name)
        .testbench(ss::Testbench::kNetworkProcessor)
        .budgets({160})
        .replications(2)
        .sizing_iterations(2)
        .horizon(400.0, 40.0)
        .seed(11)
        .build();
}

std::string read_file(const std::string& path) {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/// A small spec that reaches every batch stage: placement search, the
/// timeout policy, two evaluation replications and two sizing
/// replications, at a horizon where sizing improves on the constant
/// allocation. Its report was recorded before the engine reused its own
/// evaluations, in tests/data/golden_search_timeout.report.json.
ss::ScenarioSpec golden_search_timeout() {
    return ss::spec_from_json(JsonValue::parse(read_file(
        std::string(SOCBUF_TEST_DATA_DIR) + "/golden_search_timeout.json")));
}

}  // namespace

TEST(Session, GoldenSearchTimeoutReportIsUnchanged) {
    // A cross-version golden: the batch report must reproduce the
    // recorded bytes exactly. Never regenerate the file to make a change
    // pass — a difference means the change altered results.
    Session session({1});
    const auto report = session.run(golden_search_timeout());
    ASSERT_EQ(report.runs.size(), 2u);
    EXPECT_TRUE(report.runs[0].insertion.searched);
    EXPECT_FALSE(report.runs[0].timeout_loss.empty());
    EXPECT_NE(report.runs[1].improvement(), 0.0);
    EXPECT_EQ(report.to_json() + "\n",
              read_file(std::string(SOCBUF_TEST_DATA_DIR) +
                        "/golden_search_timeout.report.json"));
}

TEST(Session, RunByNameEqualsRunBySpec) {
    const ss::ScenarioSpec spec = small_figure1();
    Session session({1});
    session.registry().add(spec);
    const auto by_name = session.run("figure1-small");
    const auto by_spec = session.run(spec);
    EXPECT_EQ(by_name.to_json(), by_spec.to_json());
    EXPECT_THROW((void)session.run("no-such-scenario"),
                 socbuf::util::ContractViolation);
}

TEST(Session, FileLoadedSpecReproducesTheCompiledReport) {
    // The acceptance criterion: a spec exported to JSON, loaded from the
    // file and run must produce a BatchReport identical to the compiled
    // spec's — at every thread count.
    const ss::ScenarioSpec compiled = small_figure1("file-roundtrip");
    const std::string path = "session_test_tmp.json";
    {
        std::ofstream out(path);
        out << ss::to_json(compiled).dump(2) << "\n";
    }
    for (const std::size_t threads : {1UL, 2UL, 4UL}) {
        Session compiled_session({threads});
        const auto want = compiled_session.run(compiled);

        Session file_session({threads});
        ASSERT_EQ(file_session.load_file(path), 1u);
        const auto got = file_session.run("file-roundtrip");
        EXPECT_EQ(got.to_json(), want.to_json()) << "threads=" << threads;
    }
    std::remove(path.c_str());
}

TEST(Session, ReportsBitIdenticalForAnyThreadCount) {
    for (const ss::ScenarioSpec& spec :
         {small_figure1(), golden_search_timeout()}) {
        Session serial({1});
        const auto reference = serial.run(spec);
        ASSERT_EQ(reference.runs.size(), 2u) << spec.name;
        for (const std::size_t threads : {2UL, 4UL}) {
            Session parallel({threads});
            auto got = parallel.run(spec);
            EXPECT_EQ(got.workers, threads);
            got.workers = reference.workers;  // the one width-reflecting field
            got.eval_overlap = reference.eval_overlap;  // diagnostic
            EXPECT_EQ(got.to_json(), reference.to_json())
                << spec.name << " threads=" << threads;
        }
    }
}

TEST(Session, RunBatchExpandsBatchPresetsInOrder) {
    Session session({1});
    session.registry().add(small_figure1("batch-a"));
    session.registry().add(small_figure1("batch-b"));
    session.registry().add_batch(
        {"small-suite", "both small scenarios", {"batch-a", "batch-b"}});

    const auto suite = session.run("small-suite");
    ASSERT_EQ(suite.runs.size(), 4u);  // two scenarios x two budgets
    EXPECT_EQ(suite.runs[0].scenario, "batch-a");
    EXPECT_EQ(suite.runs[2].scenario, "batch-b");

    // run_batch with explicit names matches the batch preset.
    const auto by_names = session.run_batch({"batch-a", "batch-b"});
    EXPECT_EQ(by_names.to_json(), suite.to_json());
}

TEST(Session, FreshCachePerRunKeepsReportsReproducible) {
    const ss::ScenarioSpec spec = small_figure1();
    Session session({1});
    const auto first = session.run(spec);
    const auto second = session.run(spec);
    // Identical workload, identical report — counters included, because
    // every batch owns a fresh cache.
    EXPECT_EQ(first.to_json(), second.to_json());
    EXPECT_GT(second.cache.misses, 0u);
}

TEST(Session, ExportCatalogRoundTripsEveryPreset) {
    const Session session;
    const auto catalog = session.export_catalog();
    const auto specs = ss::specs_from_json(catalog);
    ASSERT_EQ(specs.size(), session.registry().size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_TRUE(specs[i] == session.registry().specs()[i])
            << specs[i].name;

    // A batch preset exports as a catalog document of its members.
    const auto suite = session.export_scenario("paper-suite");
    const auto members = ss::specs_from_json(suite);
    ASSERT_EQ(members.size(), 2u);
    EXPECT_EQ(members[0].name, "figure1");
    EXPECT_EQ(members[1].name, "np-baseline");

    // And loads back: a fresh registry fed the exported catalog contains
    // byte-equal specs.
    Session loaded;
    EXPECT_EQ(loaded.load_text(catalog.dump()), specs.size());
}

TEST(Session, DisabledCacheIsHonored) {
    SessionOptions options;
    options.threads = 1;
    options.use_solve_cache = false;
    Session session(options);
    const auto report = session.run(small_figure1());
    EXPECT_FALSE(report.cache_enabled);
    EXPECT_EQ(report.cache.lookups(), 0u);
}

TEST(Session, MixedBatchWithViRungModelsIsThreadInvariant) {
    // The batch determinism contract must survive the VI rung: a mixed
    // batch — a tiny figure-1 spec plus an np spec whose 1024-state
    // ingress-bus CTMDP takes the VI rung — reports bit-identically at
    // every width.
    Session serial({1});
    serial.registry().add(small_figure1("mixed-fig1"));
    serial.registry().add(vi_rung_np("mixed-np"));
    const auto reference = serial.run_batch({"mixed-fig1", "mixed-np"});
    ASSERT_EQ(reference.runs.size(), 3u);  // two budgets + one
    EXPECT_GT(reference.runs[2].vi_solves, 0u);  // np spec hit the VI rung
    for (const std::size_t threads : {2UL, 4UL}) {
        Session parallel({threads});
        parallel.registry().add(small_figure1("mixed-fig1"));
        parallel.registry().add(vi_rung_np("mixed-np"));
        auto got = parallel.run_batch({"mixed-fig1", "mixed-np"});
        got.workers = reference.workers;  // the one width-reflecting field
        got.eval_overlap = reference.eval_overlap;  // diagnostics
        got.first_eval_latency_s = reference.first_eval_latency_s;
        EXPECT_EQ(got.to_json(), reference.to_json())
            << "threads=" << threads;
    }
}

TEST(Session, LegacyGaussSeidelKeyChangesNoReport) {
    // Files written before the in-place sweep became the default may
    // carry "gauss_seidel" of either value: both load, and the VI-rung
    // spec reports exactly as without the key, serially and at 4 threads.
    const ss::ScenarioSpec plain = vi_rung_np();
    Session serial({1});
    const auto reference = serial.run(plain);
    ASSERT_EQ(reference.runs.size(), 1u);
    EXPECT_GT(reference.runs[0].vi_solves, 0u);
    for (const bool legacy : {true, false}) {
        JsonValue doc = ss::to_json(plain);
        doc.set("gauss_seidel", legacy);
        const ss::ScenarioSpec spec = ss::spec_from_json(doc);
        Session parallel({4});
        auto got = parallel.run(spec);
        got.workers = reference.workers;
        got.eval_overlap = reference.eval_overlap;
        got.first_eval_latency_s = reference.first_eval_latency_s;
        EXPECT_EQ(got.to_json(), reference.to_json())
            << "gauss_seidel " << legacy;
    }
}
