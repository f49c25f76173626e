// Sweep invariance: the sizing engine's VI rung runs the in-place
// Gauss–Seidel sweep by default, and the fanned Jacobi sweep when
// SizingOptions::gauss_seidel is off. The two reach the same fixed point
// by different trajectories, so on the shipped cluster workloads the
// SizingReport — allocations, simulated results, round history, rung
// counts and scores — must not depend on the choice:
// both sweeps return the tie-robust policy of their bias, so actions
// that tie in exact arithmetic resolve the same way. Beneath the report,
// every VI-rung model of the first round must give the same occupation
// measure bit for bit under either sweep.
#include "core/allocation.hpp"
#include "core/engine.hpp"
#include "core/subsystem_model.hpp"
#include "ctmdp/solver.hpp"
#include "exec/executor.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
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
    // Scores are moments of the chosen policy's stationary law: equal
    // policies give equal bits.
    EXPECT_EQ(a.site_scores, b.site_scores) << what;
    EXPECT_EQ(a.switching_states, b.switching_states) << what;
    EXPECT_EQ(a.lp_solves, b.lp_solves) << what;
    EXPECT_EQ(a.vi_solves, b.vi_solves) << what;
    EXPECT_EQ(a.pi_solves, b.pi_solves) << what;
}

/// The solver-level oracle under the report check: the subsystem models
/// of the engine's first round (uniform allocation, rates measured by the
/// baseline simulation, the engine's dispatch) that land on the VI rung
/// must yield bit-identical occupation measures x(s,a) under either
/// sweep. The occupation is the policy's whole stationary state-action
/// law (the service shares are a function of it), so this catches a
/// policy difference even where the report's scores happen to round it
/// away. Returns the number of VI models compared.
std::size_t expect_same_occupation(const socbuf::arch::TestSystem& system,
                                   const sc::SizingOptions& options,
                                   socbuf::exec::Executor& executor,
                                   const std::string& what) {
    const auto split =
        socbuf::split::split_architecture(system, options.placement);
    const auto alloc = sc::uniform_allocation(split, options.total_budget);
    const auto baseline = socbuf::sim::simulate(system, alloc, options.sim);
    // The engine's dispatch (core/engine.cpp, make_dispatch).
    socbuf::ctmdp::DispatchOptions dispatch;
    dispatch.choice = options.solver;
    dispatch.lp_pair_limit = options.lp_pair_limit;
    dispatch.pi_state_limit = options.pi_state_limit;
    dispatch.solver.vi.tolerance = 1e-7;
    dispatch.solver.vi.max_iterations = 50000;
    dispatch.solver.vi.executor = &executor;
    const socbuf::ctmdp::SolverRegistry registry;
    std::size_t compared = 0;
    for (std::size_t i = 0; i < split.subsystems.size(); ++i) {
        const auto model = sc::build_subsystem_model(
            split, i, alloc, options.model_cap,
            options.use_measured_rates ? baseline.site_observed_rate
                                       : std::vector<double>{},
            options.use_modulated_models);
        if (registry.select(model.model(), dispatch) !=
            socbuf::ctmdp::SolverKind::kValueIteration)
            continue;
        const std::string where =
            what + " bus " + split.subsystems[i].bus_name;
        dispatch.solver.vi.sweep = socbuf::ctmdp::ViSweep::kJacobi;
        const auto jacobi = registry.solve(model.model(), dispatch);
        dispatch.solver.vi.sweep = socbuf::ctmdp::ViSweep::kGaussSeidel;
        const auto gauss_seidel = registry.solve(model.model(), dispatch);
        EXPECT_EQ(jacobi.solved_by, socbuf::ctmdp::SolverKind::kValueIteration)
            << where;
        EXPECT_EQ(gauss_seidel.solved_by,
                  socbuf::ctmdp::SolverKind::kValueIteration)
            << where;
        EXPECT_EQ(jacobi.occupation.size(), model.model().pair_count())
            << where;
        if (gauss_seidel.occupation.size() != jacobi.occupation.size()) {
            ADD_FAILURE() << where << ": occupation sizes differ";
            continue;
        }
        EXPECT_EQ(std::memcmp(jacobi.occupation.data(),
                              gauss_seidel.occupation.data(),
                              jacobi.occupation.size() * sizeof(double)),
                  0)
            << where << ": occupation measures differ";
        ++compared;
    }
    return compared;
}

/// Size every selected variant of `scenario` at every budget with each
/// sweep, trimmed as the scenario-file smoke tests are (2 sizing rounds,
/// horizon 300), and require identical reports and, on the first round's
/// VI models, identical occupation measures.
void expect_sweep_invariant(const std::string& scenario,
                            const std::vector<std::string>& labels) {
    const ss::ScenarioRegistry registry;
    const ss::ScenarioSpec& spec = registry.get(scenario);
    socbuf::exec::Executor executor(4);
    std::size_t vi_solves = 0;
    std::size_t vi_models = 0;
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
            vi_models += expect_same_occupation(
                system, options, executor,
                scenario + " [" + label + "] budget " +
                    std::to_string(budget));
        }
    }
    // The comparisons mean something only if the VI rung ran.
    EXPECT_GT(vi_solves, 0u) << scenario;
    EXPECT_GT(vi_models, 0u) << scenario;
}

}  // namespace

TEST(SweepInvariance, ClusterScalingPe6ReportIsTheSameWithEitherSweep) {
    expect_sweep_invariant("np-cluster-scaling", {"pe=6"});
}

TEST(SweepInvariance, ClusterAsymmetryReportsAreTheSameWithEitherSweep) {
    expect_sweep_invariant("np-cluster-asymmetry", {});
}
