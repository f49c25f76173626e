// End-to-end integration tests: reduced-scale versions of the paper's
// experiments (the full-scale versions live in bench/). These pin the
// *shape* of every headline claim.
#include "arch/presets.hpp"
#include "nonlinear/coupled_model.hpp"
#include "nonlinear/newton.hpp"
#include "session/session.hpp"
#include "split/splitter.hpp"

#include <gtest/gtest.h>

namespace sa = socbuf::arch;
namespace ss = socbuf::scenario;
using socbuf::Session;

namespace {

/// A catalog preset scaled down to test size.
ss::ScenarioSpec reduced(const std::string& preset) {
    ss::ScenarioSpec spec = ss::ScenarioRegistry().get(preset);
    spec.sim.horizon = 1500.0;
    spec.sim.warmup = 150.0;
    spec.replications = 3;
    spec.sizing_iterations = 4;
    return spec;
}

/// The reduced `figure3` preset's one run.
ss::ScenarioRunResult small_fig3(std::size_t threads = 1) {
    Session session({threads});
    return session.run(reduced("figure3")).runs.front();
}

double gain_vs_timeout(const ss::ScenarioRunResult& r) {
    return r.timeout_total > 0.0 ? 1.0 - r.post_total / r.timeout_total
                                 : 0.0;
}

}  // namespace

TEST(Figure3, ResizingBeatsConstantBeatsTimeout) {
    const auto r = small_fig3();
    // Headline ordering of the three bars.
    EXPECT_LT(r.post_total, r.pre_total);
    EXPECT_LT(r.pre_total, r.timeout_total);
    // The paper's factors: ~20% vs constant, ~50% vs timeout. Our
    // reconstruction is more favorable to resizing (see EXPERIMENTS.md);
    // assert the direction and a sane band rather than the exact figure.
    EXPECT_GT(r.improvement(), 0.10);
    EXPECT_LT(r.improvement(), 0.95);
    EXPECT_GT(gain_vs_timeout(r), 0.30);
    // Every processor has a bar; count matches the 17-processor testbench.
    EXPECT_EQ(r.pre_loss.size(), 17u);
    EXPECT_EQ(r.post_loss.size(), 17u);
    EXPECT_EQ(r.timeout_loss.size(), 17u);
}

TEST(Figure3, AllocationsExhaustTheBudget) {
    const auto r = small_fig3();
    EXPECT_EQ(socbuf::core::allocation_total(r.constant_alloc), 320);
    EXPECT_EQ(socbuf::core::allocation_total(r.resized_alloc), 320);
    EXPECT_GT(r.timeout_threshold, 0.0);
}

TEST(Figure3, HotSchedulerGetsDeeperBuffersAndDoesNotWorsen) {
    // Display processor 16 (the heaviest, burstiest sender) is the paper's
    // showcase: resizing must deepen its buffer beyond the uniform share
    // and must not worsen its loss. (The full-scale bench shows it is also
    // among the biggest absolute winners; at this reduced horizon the
    // magnitudes are noisier, so the test pins the robust part.)
    const auto r = small_fig3();
    EXPECT_GT(r.resized_alloc[15], r.constant_alloc[15]);
    EXPECT_LE(r.post_loss[15], r.pre_loss[15] + 1.0);
}

TEST(Table1, PostLossShrinksWithBudgetAndVanishesAtTheTop) {
    Session session({1});
    const auto rows = session.run(reduced("np-baseline")).runs;
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].budget, 160);
    EXPECT_EQ(rows[2].budget, 640);
    // Post-sizing totals decrease monotonically in the budget.
    EXPECT_GT(rows[0].post_total, rows[1].post_total);
    EXPECT_GT(rows[1].post_total, rows[2].post_total);
    // At 640 the highlighted processors reach (near-)zero loss, as in the
    // paper's last column (full-scale bench: exactly ~0; reduced horizon:
    // a handful of residual drops are tolerated).
    for (const std::size_t display : {1u, 4u, 15u, 16u}) {
        EXPECT_LE(rows[2].post_loss[display - 1], 3.0)
            << "processor " << display;
    }
    // Resizing never hurts in total at the larger budgets.
    EXPECT_LE(rows[1].post_total, rows[1].pre_total);
    EXPECT_LE(rows[2].post_total, rows[2].pre_total);
}

TEST(Table1, TightBudgetCanWorsenIndividualProcessors) {
    // The paper: "some processors loss rates may increase when the buffer
    // space is very limited as in the 160 units case".
    ss::ScenarioSpec spec = reduced("np-baseline");
    spec.budgets = {160};
    Session session({1});
    const auto rows = session.run(spec).runs;
    ASSERT_EQ(rows.size(), 1u);
    bool someone_worse = false;
    for (std::size_t proc = 0; proc < rows[0].pre_loss.size(); ++proc)
        if (rows[0].post_loss[proc] > rows[0].pre_loss[proc] + 1e-9)
            someone_worse = true;
    EXPECT_TRUE(someone_worse);
    // ... while the system as a whole still does not get (much) worse.
    EXPECT_LE(rows[0].post_total, rows[0].pre_total * 1.05);
}

TEST(Motivation, SplitYieldsFeasibleSolutionOfTheQuadraticSystem) {
    // Section 2 in one test: the monolithic model of the bridged
    // architecture is quadratic (bilinear coupling), and the split-based
    // iteration — solving only *linear* per-bus systems — produces a
    // feasible point that satisfies those quadratic equations.
    const auto sys = sa::figure1_system();
    const auto split = socbuf::split::split_architecture(sys);
    const socbuf::nonlinear::CoupledBusModel model(sys, split);
    EXPECT_GT(model.bilinear_term_count(), 0u);

    const auto fp = model.solve_fixed_point();
    ASSERT_TRUE(fp.converged);
    ASSERT_TRUE(fp.solution.feasible);

    socbuf::linalg::Vector x;
    for (const auto& pi : fp.solution.pi)
        x.insert(x.end(), pi.begin(), pi.end());
    EXPECT_LT(socbuf::linalg::norm_inf(model.residual(x)), 1e-6);
}

TEST(Figure3, ThreadCountDoesNotChangeTheResult) {
    // The determinism contract of the exec layer, end to end: every
    // replication owns its RNG substream (seed = base + index) and results
    // fold in index order, so thread count must not change a single total.
    const auto serial = small_fig3(1);
    for (const std::size_t threads : {2UL, 4UL}) {
        const auto parallel = small_fig3(threads);
        EXPECT_EQ(parallel.pre_total, serial.pre_total)
            << "threads " << threads;
        EXPECT_EQ(parallel.post_total, serial.post_total)
            << "threads " << threads;
        EXPECT_EQ(parallel.timeout_total, serial.timeout_total)
            << "threads " << threads;
        EXPECT_EQ(parallel.resized_alloc, serial.resized_alloc)
            << "threads " << threads;
        EXPECT_EQ(parallel.pre_loss, serial.pre_loss)
            << "threads " << threads;
    }
}

TEST(Table1, ThreadCountDoesNotChangeTheResult) {
    // Table 1's budget rows fan out on the shared executor (one sizing job
    // per row, one eval job per replication); the fold is in expansion
    // order, so every row must be bit-identical for any worker count.
    ss::ScenarioSpec spec = reduced("np-baseline");
    spec.sim.horizon = 800.0;
    spec.sim.warmup = 80.0;
    spec.replications = 2;
    spec.sizing_iterations = 3;
    Session serial_session({1});
    const auto serial = serial_session.run(spec).runs;
    ASSERT_EQ(serial.size(), 3u);
    for (const std::size_t threads : {2UL, 4UL}) {
        Session session({threads});
        const auto parallel = session.run(spec).runs;
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t r = 0; r < serial.size(); ++r) {
            EXPECT_EQ(parallel[r].budget, serial[r].budget);
            EXPECT_EQ(parallel[r].pre_loss, serial[r].pre_loss)
                << "threads " << threads << " row " << r;
            EXPECT_EQ(parallel[r].post_loss, serial[r].post_loss)
                << "threads " << threads << " row " << r;
            EXPECT_EQ(parallel[r].pre_total, serial[r].pre_total)
                << "threads " << threads << " row " << r;
            EXPECT_EQ(parallel[r].post_total, serial[r].post_total)
                << "threads " << threads << " row " << r;
        }
    }
}

TEST(Figure3, GainsAreZeroNotNanOnZeroBaselines) {
    const ss::ScenarioRunResult empty;
    EXPECT_EQ(empty.improvement(), 0.0);
    EXPECT_EQ(gain_vs_timeout(empty), 0.0);
}
