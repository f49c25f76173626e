#include "arch/presets.hpp"
#include "core/allocation.hpp"
#include "core/engine.hpp"
#include "core/subsystem_model.hpp"
#include "ctmdp/lp_solver.hpp"
#include "ctmdp/occupation.hpp"
#include "ctmdp/solver.hpp"
#include "exec/executor.hpp"
#include "sim/simulator.hpp"
#include "split/splitter.hpp"
#include "util/contracts.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

namespace sc = socbuf::core;
namespace sa = socbuf::arch;
namespace sp = socbuf::split;

namespace {

const sa::TestSystem& figure1() {
    static const auto sys = sa::figure1_system();
    return sys;
}

const sp::SplitResult& figure1_split() {
    static const auto split = sp::split_architecture(figure1());
    return split;
}

/// The most likely action of each state (the first on a tie): the greedy
/// policy a randomized solution encodes.
std::vector<std::size_t> modal_actions(
    const socbuf::ctmdp::RandomizedPolicy& policy) {
    std::vector<std::size_t> choice(policy.state_count(), 0);
    for (std::size_t s = 0; s < policy.state_count(); ++s)
        for (std::size_t a = 1; a < policy.action_count(s); ++a)
            if (policy.probability(s, a) > policy.probability(s, choice[s]))
                choice[s] = a;
    return choice;
}

}  // namespace

TEST(Allocation, UniformExhaustsBudgetOverActiveSites) {
    const auto alloc = sc::uniform_allocation(figure1_split(), 45);
    EXPECT_EQ(sc::allocation_total(alloc), 45);
    // 9 active sites (5 processors + 4 inserted bridge buffers) -> 5 each.
    for (const auto& sub : figure1_split().subsystems)
        for (const auto& f : sub.flows) EXPECT_EQ(alloc[f.site], 5);
}

TEST(Allocation, ProportionalFollowsRates) {
    const auto& split = figure1_split();
    const auto alloc = sc::proportional_allocation(split, 90);
    EXPECT_EQ(sc::allocation_total(alloc), 90);
    // Busier sites receive at least as much as quieter ones.
    double hi_rate = 0.0;
    double lo_rate = 1e18;
    sa::SiteId hi = 0;
    sa::SiteId lo = 0;
    for (const auto& sub : split.subsystems) {
        for (const auto& f : sub.flows) {
            if (f.arrival_rate > hi_rate) {
                hi_rate = f.arrival_rate;
                hi = f.site;
            }
            if (f.arrival_rate < lo_rate) {
                lo_rate = f.arrival_rate;
                lo = f.site;
            }
        }
    }
    EXPECT_GE(alloc[hi], alloc[lo]);
}

TEST(SubsystemModel, StateSpaceAndIndexing) {
    const auto& split = figure1_split();
    // Bus b subsystem: processors 2, 3 + 1 bridge buffer = 3 flows.
    const sp::Subsystem* bus_b = nullptr;
    for (const auto& sub : split.subsystems)
        if (sub.bus_name == "b") bus_b = &sub;
    ASSERT_NE(bus_b, nullptr);
    ASSERT_EQ(bus_b->flows.size(), 3u);
    std::vector<long> caps{2, 3, 1};
    std::vector<double> rates{0.5, 0.4, 0.3};
    const sc::SubsystemCtmdp model(*bus_b, caps, rates);
    EXPECT_EQ(model.model().state_count(), 3u * 4u * 2u);
    // Occupancy decoding round-trips the mixed-radix encoding.
    for (std::size_t s = 0; s < model.model().state_count(); ++s) {
        long reconstructed = 0;
        long stride = 1;
        for (std::size_t f = 0; f < caps.size(); ++f) {
            reconstructed += model.occupancy(s, f) * stride;
            stride *= caps[f] + 1;
        }
        EXPECT_EQ(static_cast<std::size_t>(reconstructed), s);
    }
}

TEST(SubsystemModel, CostIsWeightedLossRate) {
    const auto& split = figure1_split();
    const auto& sub = split.subsystems.front();
    const std::size_t n = sub.flows.size();
    const sc::SubsystemCtmdp model(sub, std::vector<long>(n, 1),
                                   std::vector<double>(n, 1.0));
    // State with every queue full: cost = sum of weights * rates.
    const std::size_t full = model.model().state_count() - 1;
    double expected = 0.0;
    for (const auto& f : sub.flows) expected += f.weight * 1.0;
    EXPECT_NEAR(model.loss_rate(full), expected, 1e-12);
    EXPECT_NEAR(model.loss_rate(0), 0.0, 1e-12);
}

TEST(SubsystemModel, LpSolutionBeatsArbitraryPolicyAndMarginalsAreSane) {
    const auto& split = figure1_split();
    const sp::Subsystem* bus_b = nullptr;
    for (const auto& sub : split.subsystems)
        if (sub.bus_name == "b") bus_b = &sub;
    ASSERT_NE(bus_b, nullptr);
    std::vector<long> caps(bus_b->flows.size(), 3);
    std::vector<double> rates;
    for (const auto& f : bus_b->flows) rates.push_back(f.arrival_rate);
    const sc::SubsystemCtmdp model(*bus_b, caps, rates);
    const auto lp = socbuf::ctmdp::solve_average_cost_lp(model.model());
    ASSERT_EQ(lp.status, socbuf::lp::SolveStatus::kOptimal);
    // Marginals are probability distributions with means within caps.
    socbuf::linalg::Vector pi(lp.state_probability.begin(),
                              lp.state_probability.end());
    for (std::size_t f = 0; f < model.flow_count(); ++f) {
        const auto marg = model.flow_marginal(pi, f);
        double total = 0.0;
        for (double p : marg) total += p;
        EXPECT_NEAR(total, 1.0, 1e-6);
        EXPECT_LE(socbuf::ctmdp::marginal_mean(marg),
                  static_cast<double>(caps[f]));
    }
    // Service shares form a distribution over flows.
    const auto shares = model.service_shares(lp.occupation);
    EXPECT_NEAR(std::accumulate(shares.begin(), shares.end(), 0.0), 1.0,
                1e-6);
}

TEST(Engine, OptionValidation) {
    sc::SizingOptions opts;
    opts.total_budget = 0;
    EXPECT_THROW(sc::BufferSizingEngine{opts},
                 socbuf::util::ContractViolation);
    sc::SizingOptions opts2;
    opts2.iterations = 0;
    EXPECT_THROW(sc::BufferSizingEngine{opts2},
                 socbuf::util::ContractViolation);
    sc::SizingOptions opts3;
    opts3.tail_mass = 1.5;
    EXPECT_THROW(sc::BufferSizingEngine{opts3},
                 socbuf::util::ContractViolation);
}

TEST(Engine, Figure1EndToEnd) {
    sc::SizingOptions opts;
    opts.total_budget = 36;
    opts.iterations = 4;
    opts.sim.horizon = 1500.0;
    opts.sim.warmup = 150.0;
    opts.sim.seed = 11;
    const sc::BufferSizingEngine engine(opts);
    const auto report = engine.run(figure1());

    EXPECT_EQ(sc::allocation_total(report.initial), 36);
    EXPECT_EQ(sc::allocation_total(report.best), 36);
    EXPECT_FALSE(report.history.empty());
    EXPECT_GT(report.lp_solves + report.vi_solves, 0u);
    // The engine never returns something worse than the uniform baseline.
    std::vector<double> weights(figure1().flows.size(), 1.0);
    EXPECT_LE(report.after.weighted_loss(weights),
              report.before.weighted_loss(weights) + 1e-9);
}

TEST(Engine, BudgetMonotonicityOfPostLoss) {
    // More budget -> the optimized system loses no more (statistically;
    // fixed seeds make this deterministic here).
    double previous = 1e18;
    for (const long budget : {18L, 36L, 90L}) {
        sc::SizingOptions opts;
        opts.total_budget = budget;
        opts.iterations = 3;
        opts.sim.horizon = 1500.0;
        opts.sim.warmup = 150.0;
        opts.sim.seed = 13;
        const sc::BufferSizingEngine engine(opts);
        const auto report = engine.run(figure1());
        const double post = static_cast<double>(report.after.total_lost());
        EXPECT_LE(post, previous + 1.0) << "budget " << budget;
        previous = post;
    }
}

TEST(Engine, ForcedSolverChoicesAgreeOnDirection) {
    sc::SizingOptions lp_opts;
    lp_opts.total_budget = 36;
    lp_opts.iterations = 2;
    lp_opts.solver = sc::SolverChoice::kLp;
    lp_opts.sim.horizon = 1000.0;
    lp_opts.sim.warmup = 100.0;
    const auto lp_report = sc::BufferSizingEngine(lp_opts).run(figure1());
    EXPECT_GT(lp_report.lp_solves, 0u);
    EXPECT_EQ(lp_report.vi_solves, 0u);

    sc::SizingOptions vi_opts = lp_opts;
    vi_opts.solver = sc::SolverChoice::kValueIteration;
    const auto vi_report = sc::BufferSizingEngine(vi_opts).run(figure1());
    EXPECT_EQ(vi_report.lp_solves, 0u);
    EXPECT_GT(vi_report.vi_solves, 0u);

    // Both must improve on (or match) the uniform baseline.
    EXPECT_LE(vi_report.after.total_lost(), vi_report.before.total_lost());
    EXPECT_LE(lp_report.after.total_lost(), lp_report.before.total_lost());
}

TEST(Engine, ScoresCoverActiveSitesOnly) {
    sc::SizingOptions opts;
    opts.total_budget = 36;
    opts.iterations = 2;
    opts.sim.horizon = 800.0;
    opts.sim.warmup = 100.0;
    const auto report = sc::BufferSizingEngine(opts).run(figure1());
    for (const auto& sub : report.split.subsystems)
        for (const auto& f : sub.flows)
            EXPECT_GT(report.site_scores[f.site], 0.0);
}

TEST(Engine, SwitchingStatesBoundedByConstraints) {
    // Unconstrained subsystem LPs should produce (near-)deterministic
    // policies: Feinberg's bound says randomization only appears with side
    // constraints.
    sc::SizingOptions opts;
    opts.total_budget = 36;
    opts.iterations = 1;
    opts.solver = sc::SolverChoice::kLp;
    opts.sim.horizon = 800.0;
    opts.sim.warmup = 100.0;
    const auto report = sc::BufferSizingEngine(opts).run(figure1());
    EXPECT_EQ(report.switching_states, 0u);
}

TEST(Engine, EarlyStopCanBeDisabled) {
    sc::SizingOptions opts;
    opts.total_budget = 36;
    opts.iterations = 4;
    opts.early_stop = false;
    opts.sim.horizon = 600.0;
    opts.sim.warmup = 100.0;
    const auto report = sc::BufferSizingEngine(opts).run(figure1());
    EXPECT_EQ(report.history.size(), 4u);  // all rounds run
}

TEST(Engine, HistoryTracksBestAllocation) {
    sc::SizingOptions opts;
    opts.total_budget = 36;
    opts.iterations = 3;
    opts.sim.horizon = 800.0;
    opts.sim.warmup = 100.0;
    const auto report = sc::BufferSizingEngine(opts).run(figure1());
    std::vector<double> weights(figure1().flows.size(), 1.0);
    const double best_weighted = report.after.weighted_loss(weights);
    const double initial_weighted = report.before.weighted_loss(weights);
    for (const auto& rec : report.history)
        EXPECT_GE(rec.weighted_loss + 1e-9,
                  std::min(best_weighted, initial_weighted));
}

TEST(SolverLayer, RegistryAgreesOnSubsystemCtmdps) {
    // LP, VI and PI must agree — gain and greedy policy — on small
    // subsystem models, solved through the unified registry.
    const auto& split = figure1_split();
    const socbuf::ctmdp::SolverRegistry registry;
    std::size_t solved_by[3] = {0, 0, 0};  // indexed by SolverKind
    for (const auto& sub : split.subsystems) {
        std::vector<long> caps(sub.flows.size(), 2);
        std::vector<double> rates;
        for (const auto& f : sub.flows) rates.push_back(f.arrival_rate);
        const sc::SubsystemCtmdp model(sub, caps, rates);

        std::vector<socbuf::ctmdp::SubsystemSolution> sols;
        for (const auto choice :
             {sc::SolverChoice::kLp, sc::SolverChoice::kValueIteration,
              sc::SolverChoice::kPolicyIteration}) {
            socbuf::ctmdp::DispatchOptions d;
            d.choice = choice;
            sols.push_back(registry.solve(model.model(), d));
            ++solved_by[static_cast<std::size_t>(sols.back().solved_by)];
        }
        EXPECT_NEAR(sols[1].gain, sols[0].gain, 1e-6)
            << "bus " << sub.bus_name;
        EXPECT_NEAR(sols[2].gain, sols[0].gain, 1e-6)
            << "bus " << sub.bus_name;
        EXPECT_EQ(modal_actions(sols[1].policy), modal_actions(sols[2].policy))
            << "bus " << sub.bus_name;
    }
    // A forced choice is solved by the forced algorithm.
    for (const std::size_t count : solved_by)
        EXPECT_EQ(count, split.subsystems.size());
}

TEST(Engine, PolicyIterationSelectableEndToEnd) {
    sc::SizingOptions opts;
    opts.total_budget = 36;
    opts.iterations = 2;
    opts.solver = sc::SolverChoice::kPolicyIteration;
    opts.sim.horizon = 1000.0;
    opts.sim.warmup = 100.0;
    const auto report = sc::BufferSizingEngine(opts).run(figure1());
    EXPECT_GT(report.pi_solves, 0u);
    EXPECT_EQ(report.lp_solves, 0u);
    EXPECT_EQ(report.vi_solves, 0u);
    EXPECT_LE(report.after.total_lost(), report.before.total_lost());

    // PI steers the sizing to the same place the LP does (the solvers
    // agree, so the K-switching translation sees the same inputs).
    sc::SizingOptions lp_opts = opts;
    lp_opts.solver = sc::SolverChoice::kLp;
    const auto lp_report = sc::BufferSizingEngine(lp_opts).run(figure1());
    EXPECT_EQ(report.best, lp_report.best);
}

TEST(Engine, ThreadCountDoesNotChangeTheReport) {
    auto run_with = [](std::size_t threads) {
        sc::SizingOptions opts;
        opts.total_budget = 36;
        opts.iterations = 3;
        opts.sim.horizon = 1000.0;
        opts.sim.warmup = 100.0;
        socbuf::exec::Executor executor(threads);
        return sc::BufferSizingEngine(opts).run(figure1(), executor);
    };
    const auto serial = run_with(1);
    for (const std::size_t threads : {2UL, 4UL}) {
        const auto parallel = run_with(threads);
        EXPECT_EQ(parallel.best, serial.best) << "threads " << threads;
        EXPECT_EQ(parallel.after.total_lost(), serial.after.total_lost())
            << "threads " << threads;
        EXPECT_EQ(parallel.lp_solves, serial.lp_solves);
        ASSERT_EQ(parallel.history.size(), serial.history.size());
        for (std::size_t i = 0; i < serial.history.size(); ++i)
            EXPECT_EQ(parallel.history[i].allocation,
                      serial.history[i].allocation)
                << "iteration " << i;
    }
}

TEST(Engine, EvalReplicationOptionValidationAndDefaultPath) {
    sc::SizingOptions bad;
    bad.eval_replications = 0;
    EXPECT_THROW(sc::BufferSizingEngine{bad},
                 socbuf::util::ContractViolation);

    // eval_replications = 1 (the default) is the legacy single-sim round,
    // op for op.
    auto run_with = [](std::size_t eval_replications) {
        sc::SizingOptions opts;
        opts.total_budget = 36;
        opts.iterations = 3;
        opts.eval_replications = eval_replications;
        opts.sim.horizon = 1000.0;
        opts.sim.warmup = 100.0;
        return sc::BufferSizingEngine(opts).run(figure1());
    };
    const auto legacy = run_with(1);
    const auto replicated = run_with(3);
    EXPECT_EQ(legacy.best, run_with(1).best);
    ASSERT_FALSE(replicated.history.empty());
    // Replicated rounds score on means — a different (smoother) signal,
    // but still a budget-exhausting allocation.
    EXPECT_EQ(sc::allocation_total(replicated.best), 36);
}

TEST(Engine, ReplicatedRoundEvalsAreBitIdenticalForAnyWorkerCount) {
    auto run_with = [](std::size_t threads) {
        sc::SizingOptions opts;
        opts.total_budget = 36;
        opts.iterations = 3;
        opts.eval_replications = 4;  // fans the round sims across workers
        opts.sim.horizon = 800.0;
        opts.sim.warmup = 80.0;
        socbuf::exec::Executor executor(threads);
        return sc::BufferSizingEngine(opts).run(figure1(), executor);
    };
    const auto serial = run_with(1);
    for (const std::size_t threads : {2UL, 4UL}) {
        const auto parallel = run_with(threads);
        EXPECT_EQ(parallel.best, serial.best) << "threads " << threads;
        ASSERT_EQ(parallel.history.size(), serial.history.size());
        for (std::size_t i = 0; i < serial.history.size(); ++i) {
            EXPECT_EQ(parallel.history[i].allocation,
                      serial.history[i].allocation)
                << "iteration " << i;
            EXPECT_EQ(parallel.history[i].weighted_loss,
                      serial.history[i].weighted_loss)
                << "iteration " << i;
        }
    }
}

TEST(Engine, ImprovementIsZeroWhenBaselineLossIsZero) {
    // A zero-loss baseline must not divide by zero (0, not NaN).
    sc::SizingReport report;
    EXPECT_EQ(report.improvement(), 0.0);
    EXPECT_FALSE(std::isnan(report.improvement()));
}

namespace {

const sa::TestSystem& network_processor() {
    static const auto sys = sa::network_processor_system();
    return sys;
}

/// Exact, field-for-field SimResult equality (doubles bit for bit).
void expect_same_sim(const socbuf::sim::SimResult& got,
                     const socbuf::sim::SimResult& want,
                     const std::string& what) {
    EXPECT_EQ(got.measured_time, want.measured_time) << what;
    EXPECT_EQ(got.offered, want.offered) << what;
    EXPECT_EQ(got.delivered, want.delivered) << what;
    EXPECT_EQ(got.lost, want.lost) << what;
    EXPECT_EQ(got.flow_lost, want.flow_lost) << what;
    EXPECT_EQ(got.site_arrivals, want.site_arrivals) << what;
    EXPECT_EQ(got.site_losses, want.site_losses) << what;
    EXPECT_EQ(got.site_mean_wait, want.site_mean_wait) << what;
    EXPECT_EQ(got.site_mean_occupancy, want.site_mean_occupancy) << what;
    EXPECT_EQ(got.site_observed_rate, want.site_observed_rate) << what;
    EXPECT_EQ(got.bus_utilization, want.bus_utilization) << what;
    EXPECT_EQ(got.events_fired, want.events_fired) << what;
    EXPECT_EQ(got.site_served, want.site_served) << what;
}

/// Run the engine and check it against an oracle that simulates every
/// allocation from scratch: `before` / `after` must equal a direct
/// sim::simulate of `initial` / `best` at opts.sim, and every history
/// record must equal a fresh evaluation of its allocation — the
/// replication means of direct sims at seed + r, folded in replication
/// order. Whatever the engine reuses, the report must not tell.
sc::SizingReport run_against_direct_sims(const sa::TestSystem& system,
                                         const sc::SizingOptions& opts) {
    const auto report = sc::BufferSizingEngine(opts).run(system);
    expect_same_sim(report.before,
                    socbuf::sim::simulate(system, report.initial, opts.sim),
                    "before");
    expect_same_sim(report.after,
                    socbuf::sim::simulate(system, report.best, opts.sim),
                    "after");
    std::vector<double> weights;
    for (const auto& f : system.flows) weights.push_back(f.weight);
    for (std::size_t i = 0; i < report.history.size(); ++i) {
        const auto& rec = report.history[i];
        double total = 0.0;
        double weighted = 0.0;
        for (std::size_t r = 0; r < opts.eval_replications; ++r) {
            socbuf::sim::SimConfig config = opts.sim;
            config.seed = opts.sim.seed + r;
            const auto sim =
                socbuf::sim::simulate(system, rec.allocation, config);
            total += static_cast<double>(sim.total_lost());
            weighted += sim.weighted_loss(weights);
        }
        const double n = static_cast<double>(opts.eval_replications);
        EXPECT_EQ(rec.total_lost, total / n) << "round " << i;
        EXPECT_EQ(rec.weighted_loss, weighted / n) << "round " << i;
    }
    return report;
}

sc::SizingOptions short_run(std::size_t eval_replications) {
    sc::SizingOptions opts;
    opts.total_budget = 36;
    opts.iterations = 6;
    opts.eval_replications = eval_replications;
    opts.sim.horizon = 800.0;
    opts.sim.warmup = 80.0;
    opts.sim.seed = 5;
    return opts;
}

/// Whether some allocation occurs twice among `initial` and the rounds.
bool allocations_repeat(const sc::SizingReport& report) {
    std::vector<sc::Allocation> seen{report.initial};
    for (const auto& rec : report.history) {
        if (std::find(seen.begin(), seen.end(), rec.allocation) != seen.end())
            return true;
        seen.push_back(rec.allocation);
    }
    return false;
}

}  // namespace

TEST(Engine, ReusedEvaluationsMatchDirectSimsOnFigure1) {
    for (const std::size_t reps : {1UL, 2UL}) {
        SCOPED_TRACE("eval_replications " + std::to_string(reps));
        const auto opts = short_run(reps);
        const auto report = run_against_direct_sims(figure1(), opts);
        ASSERT_FALSE(report.history.empty());
        if (reps != 1) continue;
        // This run stops early at a fixed point: its last round repeats
        // the allocation before it, so that round's evaluation is the
        // reused one.
        ASSERT_LT(report.history.size(),
                  static_cast<std::size_t>(opts.iterations));
        const sc::Allocation& previous =
            report.history.size() >= 2
                ? report.history[report.history.size() - 2].allocation
                : report.initial;
        EXPECT_EQ(report.history.back().allocation, previous);
    }
}

TEST(Engine, ReusedEvaluationsMatchDirectSimsWithoutEarlyStop) {
    for (const std::size_t reps : {1UL, 2UL}) {
        SCOPED_TRACE("eval_replications " + std::to_string(reps));
        auto opts = short_run(reps);
        opts.early_stop = false;
        const auto report = run_against_direct_sims(figure1(), opts);
        EXPECT_EQ(report.history.size(),
                  static_cast<std::size_t>(opts.iterations));
        EXPECT_TRUE(allocations_repeat(report));
    }
}

TEST(Engine, ReusedEvaluationsMatchDirectSimsOnTheNetworkProcessor) {
    for (const std::size_t reps : {1UL, 2UL}) {
        SCOPED_TRACE("eval_replications " + std::to_string(reps));
        sc::SizingOptions opts = short_run(reps);
        opts.total_budget = 160;
        opts.iterations = 3;
        opts.sim.horizon = 300.0;
        opts.sim.warmup = 30.0;
        const auto report = run_against_direct_sims(network_processor(), opts);
        ASSERT_FALSE(report.history.empty());
    }
}
