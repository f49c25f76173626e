// The scaled VI rung: executor-fanned Jacobi sweeps must be bit-identical
// to the serial loop at every worker count (the determinism contract each
// report pins against), the opt-in Gauss–Seidel sweep must agree with
// Jacobi to tolerance while cutting the sweep count, and the SolveCache
// fingerprint must key on the sweep variant but never on the
// schedule-only knobs (executor, parallel_min_states).
#include "arch/presets.hpp"
#include "core/subsystem_model.hpp"
#include "ctmc/stationary.hpp"
#include "ctmdp/occupation.hpp"
#include "ctmdp/solve_cache.hpp"
#include "ctmdp/solver.hpp"
#include "ctmdp/value_iteration.hpp"
#include "exec/executor.hpp"
#include "split/splitter.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

namespace sm = socbuf::ctmdp;

namespace {

/// Every figure1 subsystem as a CTMDP at the given per-flow cap.
std::vector<socbuf::core::SubsystemCtmdp> figure1_subsystems(long cap) {
    static const auto sys = socbuf::arch::figure1_system();
    static const auto split = socbuf::split::split_architecture(sys);
    std::vector<socbuf::core::SubsystemCtmdp> models;
    for (const auto& sub : split.subsystems) {
        std::vector<long> caps(sub.flows.size(), cap);
        std::vector<double> rates;
        for (const auto& f : sub.flows) rates.push_back(f.arrival_rate);
        models.emplace_back(sub, caps, rates);
    }
    return models;
}

/// The np-cluster-scaling ingress bus as a CTMDP — the wide-band family
/// whose state count is (cap + 1)^(pe + 1); pe = 6, cap = 2 gives the
/// 2187-state model the Gauss–Seidel pins run on. Returned by value (the
/// split it is built from is a local).
sm::CtmdpModel np_ingress_model(std::size_t pe, long cap) {
    socbuf::arch::NetworkProcessorParams params;
    params.pe_per_cluster = pe;
    const auto sys = socbuf::arch::network_processor_system(params);
    const auto split = socbuf::split::split_architecture(sys);
    const socbuf::split::Subsystem* bus = nullptr;
    for (const auto& sub : split.subsystems)
        if (sub.bus_name == "ingress") bus = &sub;
    std::vector<long> caps(bus->flows.size(), cap);
    std::vector<double> rates;
    for (const auto& f : bus->flows) rates.push_back(f.arrival_rate);
    return socbuf::core::SubsystemCtmdp(*bus, caps, rates).model();
}

void expect_bit_identical(const sm::ViResult& a, const sm::ViResult& b) {
    EXPECT_EQ(a.gain, b.gain);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.span_residual, b.span_residual);
    EXPECT_EQ(a.bias, b.bias);
    EXPECT_EQ(a.policy.choices(), b.policy.choices());
}

}  // namespace

TEST(ParallelVi, FannedJacobiBitIdenticalAtEveryWidth) {
    // The chunk boundaries of the fanned sweep depend only on the state
    // count, never on the pool size, so one, two and four workers (and
    // the no-executor serial loop) must produce the same bits —
    // including iteration counts and the final residual.
    for (const long cap : {3L, 4L}) {
        for (const auto& sub : figure1_subsystems(cap)) {
            const auto& model = sub.model();
            const auto serial = sm::relative_value_iteration(model);
            ASSERT_TRUE(serial.converged);
            for (const std::size_t threads : {1UL, 2UL, 4UL}) {
                socbuf::exec::Executor executor(threads);
                sm::ViOptions options;
                options.executor = &executor;
                options.parallel_min_states = 1;  // force the fanned path
                const auto fanned =
                    sm::relative_value_iteration(model, options);
                ASSERT_TRUE(fanned.converged);
                expect_bit_identical(serial, fanned);
            }
        }
    }
}

TEST(GaussSeidel, MatchesJacobiGainOnPresetSubsystems) {
    // Different trajectory, same fixed point: gains agree to the stopping
    // tolerance (not bit for bit — the sweep is opt-in for that reason).
    for (const long cap : {3L, 4L}) {
        for (const auto& sub : figure1_subsystems(cap)) {
            const auto& model = sub.model();
            const auto jacobi = sm::relative_value_iteration(model);
            sm::ViOptions options;
            options.sweep = sm::ViSweep::kGaussSeidel;
            const auto gs = sm::relative_value_iteration(model, options);
            ASSERT_TRUE(jacobi.converged);
            ASSERT_TRUE(gs.converged);
            EXPECT_NEAR(gs.gain, jacobi.gain, 1e-7)
                << "states " << model.state_count();
            // The bias convention is shared: h(ref) = 0 exactly.
            EXPECT_EQ(gs.bias[0], 0.0);
        }
    }
}

TEST(GaussSeidel, CutsSweepsInHalfOnTheClusterBus) {
    // The acceleration claim on the wide-band np family (2187 states):
    // the implicit-diagonal red-black sweep needs at most half Jacobi's
    // sweep count at the engine's VI-rung tolerance. Both solvers are
    // deterministic, so the pin cannot flake.
    const auto model = np_ingress_model(6, 2);
    ASSERT_EQ(model.state_count(), 2187u);
    sm::ViOptions jacobi;
    jacobi.tolerance = 1e-7;
    jacobi.max_iterations = 50000;
    auto gs = jacobi;
    gs.sweep = sm::ViSweep::kGaussSeidel;
    const auto rj = sm::relative_value_iteration(model, jacobi);
    const auto rg = sm::relative_value_iteration(model, gs);
    ASSERT_TRUE(rj.converged);
    ASSERT_TRUE(rg.converged);
    EXPECT_NEAR(rg.gain, rj.gain, 1e-5);
    EXPECT_LE(2 * rg.iterations, rj.iterations);
}

TEST(GaussSeidel, DeterministicAtEveryWidth) {
    // The red-black phases are Jacobi within themselves (compute pass,
    // then write pass), so the Gauss–Seidel sweep shares the fanned
    // determinism contract: any worker count, same bits.
    const auto model = np_ingress_model(6, 2);
    sm::ViOptions options;
    options.sweep = sm::ViSweep::kGaussSeidel;
    options.tolerance = 1e-7;
    options.max_iterations = 50000;
    const auto serial = sm::relative_value_iteration(model, options);
    ASSERT_TRUE(serial.converged);
    for (const std::size_t threads : {1UL, 2UL, 4UL}) {
        socbuf::exec::Executor executor(threads);
        auto fanned_options = options;
        fanned_options.executor = &executor;
        fanned_options.parallel_min_states = 1;
        const auto fanned =
            sm::relative_value_iteration(model, fanned_options);
        ASSERT_TRUE(fanned.converged);
        expect_bit_identical(serial, fanned);
    }
}

TEST(ParallelStationary, FannedPowerIterationBitIdentical) {
    // The gather-form stationary sweep: fanned and serial runs share the
    // stable-transpose fold order, so the distribution is bit-identical
    // at every width.
    const auto models = figure1_subsystems(4);
    const auto& model = models.front().model();
    sm::DispatchOptions lp;
    lp.choice = sm::SolverChoice::kLp;
    sm::SolverRegistry registry;
    const auto solution = registry.solve(model, lp);
    const auto chain =
        sm::induced_uniformized_chain(model, solution.policy);
    const auto serial = socbuf::ctmc::stationary_power_sparse(
        chain.jumps, chain.stay, 1e-11, 500000);
    for (const std::size_t threads : {2UL, 4UL}) {
        socbuf::exec::Executor executor(threads);
        const auto fanned = socbuf::ctmc::stationary_power_sparse(
            chain.jumps, chain.stay, 1e-11, 500000, &executor,
            /*parallel_min_states=*/1);
        EXPECT_EQ(serial, fanned);
    }
}

TEST(ParallelVi, OccupationAndPolicyCostMatchSerialOnTheViRung) {
    // End-to-end through the solver layer on a model past the fan gate
    // (1024 states >= parallel_min_states): occupation measure, policy
    // cost and the full solution must not move when an executor is
    // plugged in.
    const auto model = np_ingress_model(4, 3);
    ASSERT_EQ(model.state_count(), 1024u);
    sm::DispatchOptions vi;
    vi.choice = sm::SolverChoice::kValueIteration;
    vi.solver.vi.tolerance = 1e-7;
    vi.solver.vi.max_iterations = 50000;
    sm::SolverRegistry registry;
    const auto serial = registry.solve(model, vi);
    socbuf::exec::Executor executor(4);
    auto fanned_options = vi;
    fanned_options.solver.vi.executor = &executor;
    const auto fanned = registry.solve(model, fanned_options);
    EXPECT_EQ(serial.gain, fanned.gain);
    EXPECT_EQ(serial.bias, fanned.bias);
    EXPECT_EQ(serial.stationary, fanned.stationary);
    EXPECT_EQ(serial.occupation, fanned.occupation);
    const double cost_serial =
        sm::average_cost_of_policy(model, serial.policy);
    const double cost_fanned =
        sm::average_cost_of_policy(model, serial.policy, &executor);
    EXPECT_EQ(cost_serial, cost_fanned);
}

TEST(SolveCacheFingerprint, SweepIsKeyedScheduleKnobsAreNot) {
    const auto models = figure1_subsystems(2);
    const auto& model = models.front().model();
    const sm::DispatchOptions base;
    const auto base_key = sm::solve_fingerprint(model, base);

    // kGaussSeidel changes result bits, so it must change the key.
    auto gs = base;
    gs.solver.vi.sweep = sm::ViSweep::kGaussSeidel;
    EXPECT_NE(sm::solve_fingerprint(model, gs), base_key);

    // Schedule-only knobs are bit-identical by contract and must share
    // the key — otherwise fanned and serial runs could not share cache
    // entries.
    socbuf::exec::Executor executor(2);
    auto fanned = base;
    fanned.solver.vi.executor = &executor;
    fanned.solver.vi.parallel_min_states = 7;
    EXPECT_EQ(sm::solve_fingerprint(model, fanned), base_key);
}
