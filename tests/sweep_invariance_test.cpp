// Sweep invariance: the sizing engine's VI rung runs the in-place
// Gauss–Seidel sweep by default, and the fanned Jacobi sweep when
// SizingOptions::gauss_seidel is off. The two reach the same fixed point
// by different trajectories, so on the shipped cluster workloads the
// SizingReport — allocations, simulated results, round history, rung
// counts, scores and service weights — must not depend on the choice:
// both sweeps return the tie-robust policy of their bias, so actions
// that tie in exact arithmetic resolve the same way.
#include "core/engine.hpp"
#include "exec/executor.hpp"
#include "scenario/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace sc = socbuf::core;
namespace ss = socbuf::scenario;

namespace {

void expect_same_sim(const socbuf::sim::SimResult& a,
                     const socbuf::sim::SimResult& b,
                     const std::string& what) {
    EXPECT_EQ(a.measured_time, b.measured_time) << what;
    EXPECT_EQ(a.offered, b.offered) << what;
    EXPECT_EQ(a.delivered, b.delivered) << what;
    EXPECT_EQ(a.lost, b.lost) << what;
    EXPECT_EQ(a.flow_lost, b.flow_lost) << what;
    EXPECT_EQ(a.site_arrivals, b.site_arrivals) << what;
    EXPECT_EQ(a.site_losses, b.site_losses) << what;
    EXPECT_EQ(a.site_mean_wait, b.site_mean_wait) << what;
    EXPECT_EQ(a.site_mean_occupancy, b.site_mean_occupancy) << what;
    EXPECT_EQ(a.site_observed_rate, b.site_observed_rate) << what;
    EXPECT_EQ(a.bus_utilization, b.bus_utilization) << what;
    EXPECT_EQ(a.events_fired, b.events_fired) << what;
    EXPECT_EQ(a.site_served, b.site_served) << what;
}

void expect_same_report(const sc::SizingReport& a, const sc::SizingReport& b,
                        const std::string& what) {
    EXPECT_EQ(a.initial, b.initial) << what;
    EXPECT_EQ(a.best, b.best) << what;
    EXPECT_EQ(a.best_weighted_loss, b.best_weighted_loss) << what;
    expect_same_sim(a.before, b.before, what + " before");
    expect_same_sim(a.after, b.after, what + " after");
    ASSERT_EQ(a.history.size(), b.history.size()) << what;
    for (std::size_t r = 0; r < a.history.size(); ++r) {
        EXPECT_EQ(a.history[r].allocation, b.history[r].allocation) << what;
        EXPECT_EQ(a.history[r].total_lost, b.history[r].total_lost) << what;
        EXPECT_EQ(a.history[r].weighted_loss, b.history[r].weighted_loss)
            << what;
    }
    // Scores and service weights are moments of the chosen policy's
    // stationary law: equal policies give equal bits.
    EXPECT_EQ(a.site_scores, b.site_scores) << what;
    EXPECT_EQ(a.site_service_weights, b.site_service_weights) << what;
    EXPECT_EQ(a.switching_states, b.switching_states) << what;
    EXPECT_EQ(a.lp_solves, b.lp_solves) << what;
    EXPECT_EQ(a.vi_solves, b.vi_solves) << what;
    EXPECT_EQ(a.pi_solves, b.pi_solves) << what;
}

/// Size every selected variant of `scenario` at every budget with each
/// sweep, trimmed as the scenario-file smoke tests are (2 sizing rounds,
/// horizon 300), and require identical reports.
void expect_sweep_invariant(const std::string& scenario,
                            const std::vector<std::string>& labels) {
    const ss::ScenarioRegistry registry;
    const ss::ScenarioSpec& spec = registry.get(scenario);
    socbuf::exec::Executor executor(4);
    std::size_t vi_solves = 0;
    for (std::size_t v = 0; v < spec.variants.size(); ++v) {
        const std::string& label = spec.variants[v].label;
        if (!labels.empty() &&
            std::find(labels.begin(), labels.end(), label) == labels.end())
            continue;
        const auto system = spec.build_system(v);
        for (const long budget : spec.budgets) {
            sc::SizingOptions options = spec.sizing_options(budget);
            options.iterations = 2;
            options.sim.horizon = 300.0;
            if (options.sim.warmup >= options.sim.horizon)
                options.sim.warmup = options.sim.horizon / 10.0;
            options.gauss_seidel = false;
            const auto jacobi =
                sc::BufferSizingEngine(options).run(system, executor);
            options.gauss_seidel = true;
            const auto gauss_seidel =
                sc::BufferSizingEngine(options).run(system, executor);
            expect_same_report(jacobi, gauss_seidel,
                               scenario + " [" + label + "] budget " +
                                   std::to_string(budget));
            vi_solves += gauss_seidel.vi_solves;
        }
    }
    // The comparison means something only if the VI rung ran.
    EXPECT_GT(vi_solves, 0u) << scenario;
}

}  // namespace

TEST(SweepInvariance, ClusterScalingPe6ReportIsTheSameWithEitherSweep) {
    expect_sweep_invariant("np-cluster-scaling", {"pe=6"});
}

TEST(SweepInvariance, ClusterAsymmetryReportsAreTheSameWithEitherSweep) {
    expect_sweep_invariant("np-cluster-asymmetry", {});
}
