#include "arch/presets.hpp"
#include "core/allocation.hpp"
#include "core/engine.hpp"
#include "core/subsystem_model.hpp"
#include "ctmdp/lp_solver.hpp"
#include "ctmdp/occupation.hpp"
#include "ctmdp/solve_cache.hpp"
#include "split/splitter.hpp"
#include "util/contracts.hpp"

#include <gtest/gtest.h>

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

/// Bus b of Figure 1 carries one bursty flow (processor 2's ON/OFF stream
/// to processor 5) — the canonical modulated test subject.
const sp::Subsystem& bus_b() {
    for (const auto& sub : figure1_split().subsystems)
        if (sub.bus_name == "b") return sub;
    throw std::logic_error("bus b missing");
}

}  // namespace

TEST(SplitBurstInfo, BurstParametersSurviveTheSplit) {
    const auto& sub = bus_b();
    std::size_t bursty = 0;
    for (const auto& f : sub.flows) {
        if (f.bursty()) {
            ++bursty;
            EXPECT_GT(f.burst_rate, 0.0);
            EXPECT_GT(f.on_time, 0.0);
            EXPECT_GT(f.off_time, 0.0);
            EXPECT_LE(f.burst_rate, f.arrival_rate + 1e-12);
        }
    }
    EXPECT_GE(bursty, 1u) << "processor 2's flow is bursty by construction";
}

TEST(ModulatedModel, StateSpaceDoublesPerBurstyFlow) {
    const auto& sub = bus_b();
    std::vector<long> caps(sub.flows.size(), 2);
    std::vector<double> rates;
    for (const auto& f : sub.flows) rates.push_back(f.arrival_rate);

    const sc::SubsystemCtmdp poisson(sub, caps, rates);
    const sc::SubsystemCtmdp modulated(sub, caps, rates, true);
    ASSERT_GE(modulated.modulated_flow_count(), 1u);
    EXPECT_EQ(modulated.model().state_count(),
              poisson.model().state_count()
                  << modulated.modulated_flow_count());
}

TEST(ModulatedModel, PhaseAndOccupancyDecodeRoundTrip) {
    const auto& sub = bus_b();
    std::vector<long> caps(sub.flows.size(), 2);
    std::vector<double> rates;
    for (const auto& f : sub.flows) rates.push_back(f.arrival_rate);
    const sc::SubsystemCtmdp m(sub, caps, rates, true);
    // Every state must be uniquely identified by (occupancies, phases).
    std::set<std::vector<long>> seen;
    for (std::size_t s = 0; s < m.model().state_count(); ++s) {
        std::vector<long> key;
        for (std::size_t f = 0; f < m.flow_count(); ++f) {
            key.push_back(m.occupancy(s, f));
            key.push_back(m.phase_on(s, f) ? 1 : 0);
        }
        EXPECT_TRUE(seen.insert(key).second) << "duplicate state key";
    }
}

TEST(ModulatedModel, SmoothFlowsReduceToThePoissonModel) {
    // A subsystem with no bursty flows: the modulated model must be the
    // Poisson model byte for byte, so it solves to the same bits.
    const sp::Subsystem* bus_a = nullptr;
    for (const auto& sub : figure1_split().subsystems)
        if (sub.bus_name == "a") bus_a = &sub;
    ASSERT_NE(bus_a, nullptr);
    std::vector<long> caps(bus_a->flows.size(), 3);
    std::vector<double> rates;
    for (const auto& f : bus_a->flows) rates.push_back(f.arrival_rate);

    const sc::SubsystemCtmdp poisson(*bus_a, caps, rates);
    const sc::SubsystemCtmdp modulated(*bus_a, caps, rates, true);
    EXPECT_EQ(modulated.modulated_flow_count(), 0u);
    EXPECT_EQ(socbuf::ctmdp::solve_fingerprint(modulated.model(), {}),
              socbuf::ctmdp::solve_fingerprint(poisson.model(), {}));
    EXPECT_TRUE(socbuf::ctmdp::matches_packed_key(
        socbuf::ctmdp::packed_model_key(poisson.model()), modulated.model()));
}

TEST(ModulatedModel, PredictsMoreLossThanPoissonForBurstyTraffic) {
    // The whole point: at equal long-run rates, the burst-aware model
    // knows small buffers overflow during ON phases; the Poisson model
    // underestimates that loss.
    const auto& sub = bus_b();
    std::vector<long> caps(sub.flows.size(), 2);
    std::vector<double> rates;
    for (const auto& f : sub.flows) rates.push_back(f.arrival_rate);
    const sc::SubsystemCtmdp poisson(sub, caps, rates);
    const sc::SubsystemCtmdp modulated(sub, caps, rates, true);
    const auto lp_p = socbuf::ctmdp::solve_average_cost_lp(poisson.model());
    const auto lp_m =
        socbuf::ctmdp::solve_average_cost_lp(modulated.model());
    ASSERT_EQ(lp_p.status, socbuf::lp::SolveStatus::kOptimal);
    ASSERT_EQ(lp_m.status, socbuf::lp::SolveStatus::kOptimal);
    EXPECT_GT(lp_m.average_cost, lp_p.average_cost * 1.05);
}

TEST(ModulatedModel, MarginalsAndSharesAreDistributions) {
    const auto& sub = bus_b();
    std::vector<long> caps(sub.flows.size(), 2);
    std::vector<double> rates;
    for (const auto& f : sub.flows) rates.push_back(f.arrival_rate);
    const sc::SubsystemCtmdp m(sub, caps, rates, true);
    const auto lp = socbuf::ctmdp::solve_average_cost_lp(m.model());
    ASSERT_EQ(lp.status, socbuf::lp::SolveStatus::kOptimal);
    socbuf::linalg::Vector pi(lp.state_probability.begin(),
                              lp.state_probability.end());
    for (std::size_t f = 0; f < m.flow_count(); ++f) {
        const auto marg = m.flow_marginal(pi, f);
        double total = 0.0;
        for (double p : marg) {
            EXPECT_GE(p, -1e-9);
            total += p;
        }
        EXPECT_NEAR(total, 1.0, 1e-6);
    }
    const auto shares = m.service_shares(lp.occupation);
    double share_total = 0.0;
    for (double s : shares) share_total += s;
    EXPECT_NEAR(share_total, 1.0, 1e-6);
}

TEST(ModulatedModel, BuilderClampsAndValidates) {
    const auto& split = figure1_split();
    const auto alloc = sc::uniform_allocation(split, 36);
    for (std::size_t i = 0; i < split.subsystems.size(); ++i) {
        const auto m = sc::build_subsystem_model(split, i, alloc, 2, {}, true);
        for (const long c : m.caps()) EXPECT_LE(c, 2);
    }
    EXPECT_THROW(
        (void)sc::build_subsystem_model(split, 0, {1, 2}, 2, {}, true),
        socbuf::util::ContractViolation);
}

TEST(Engine, ModulatedModeRunsEndToEnd) {
    sc::SizingOptions opts;
    opts.total_budget = 36;
    opts.iterations = 2;
    opts.model_cap = 2;  // modulated state spaces grow 2x per bursty flow
    opts.use_modulated_models = true;
    opts.sim.horizon = 1200.0;
    opts.sim.warmup = 120.0;
    const auto report = sc::BufferSizingEngine(opts).run(figure1());
    EXPECT_EQ(sc::allocation_total(report.best), 36);
    std::vector<double> weights(figure1().flows.size(), 1.0);
    EXPECT_LE(report.after.weighted_loss(weights),
              report.before.weighted_loss(weights) + 1e-9);
}
