#include "arch/presets.hpp"
#include "exec/executor.hpp"
#include "queueing/mm1k.hpp"
#include "sim/simulator.hpp"
#include "util/contracts.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ss = socbuf::sim;
namespace sa = socbuf::arch;

namespace {

/// One processor sending to another on a single bus: the source queue is
/// exactly an M/M/1/K queue with the bus as its server.
sa::TestSystem single_queue_system(double lambda, double mu) {
    sa::TestSystem sys;
    sys.name = "mm1k";
    const auto bus = sys.architecture.add_bus("bus", mu);
    const auto src = sys.architecture.add_processor("src", bus);
    const auto dst = sys.architecture.add_processor("dst", bus);
    sys.flows.push_back({src, dst, lambda, 1.0, 0.0, 0.0});
    return sys;
}

ss::SimConfig long_config(std::uint64_t seed = 1) {
    ss::SimConfig c;
    c.horizon = 60000.0;
    c.warmup = 2000.0;
    c.seed = seed;
    return c;
}

/// One pinned simulate() outcome: every SimResult vector, recorded from a
/// known-good simulator (see sim_golden.inc).
struct GoldenResult {
    const char* name;
    double measured_time;
    std::vector<std::uint64_t> offered;
    std::vector<std::uint64_t> delivered;
    std::vector<std::uint64_t> lost;
    std::vector<std::uint64_t> flow_lost;
    std::vector<std::uint64_t> site_arrivals;
    std::vector<std::uint64_t> site_losses;
    std::vector<std::uint64_t> site_served;
    std::vector<double> site_mean_wait;
    std::vector<double> site_mean_occupancy;
    std::vector<double> site_observed_rate;
    std::vector<double> bus_utilization;
};

const std::vector<GoldenResult>& golden_results() {
    static const std::vector<GoldenResult> results = {
#include "sim_golden.inc"
    };
    return results;
}

/// The golden cases' configuration: short horizon, uneven capacities and
/// per-site thresholds when the timeout policy is on.
ss::SimConfig golden_config(std::size_t sites, bool timeout) {
    ss::SimConfig cfg;
    cfg.horizon = 200.0;
    cfg.warmup = 20.0;
    cfg.seed = 2005;
    if (timeout) {
        cfg.timeout_enabled = true;
        for (std::size_t s = 0; s < sites; ++s)
            cfg.site_timeout_thresholds.push_back(
                0.5 + 0.5 * static_cast<double>(s % 3));
    }
    return cfg;
}

std::vector<long> golden_capacities(std::size_t sites) {
    std::vector<long> caps(sites);
    for (std::size_t s = 0; s < sites; ++s)
        caps[s] = 1 + static_cast<long>(s % 4);
    return caps;
}

}  // namespace

TEST(Simulator, GoldenResultsPinned) {
    // Cross-version oracle: the simulator must reproduce these results bit
    // for bit, so a rewrite of the event queue or the arbiter cannot
    // silently change event order or RNG draws.
    const auto& golden = golden_results();
    std::size_t next = 0;
    for (const auto& sys :
         {sa::figure1_system(), sa::network_processor_system()}) {
        const std::size_t sites =
            sa::enumerate_buffer_sites(sys.architecture).size();
        for (const bool timeout : {false, true}) {
            const std::string name = sys.name + "/round-robin" +
                                     (timeout ? "/timeout" : "/no-timeout");
            ASSERT_LT(next, golden.size()) << name;
            const GoldenResult& want = golden[next++];
            ASSERT_EQ(name, want.name);
            const auto got = ss::simulate(sys, golden_capacities(sites),
                                          golden_config(sites, timeout));
            EXPECT_EQ(got.measured_time, want.measured_time) << name;
            EXPECT_EQ(got.offered, want.offered) << name;
            EXPECT_EQ(got.delivered, want.delivered) << name;
            EXPECT_EQ(got.lost, want.lost) << name;
            EXPECT_EQ(got.flow_lost, want.flow_lost) << name;
            EXPECT_EQ(got.site_arrivals, want.site_arrivals) << name;
            EXPECT_EQ(got.site_losses, want.site_losses) << name;
            EXPECT_EQ(got.site_served, want.site_served) << name;
            EXPECT_EQ(got.site_mean_wait, want.site_mean_wait) << name;
            EXPECT_EQ(got.site_mean_occupancy, want.site_mean_occupancy)
                << name;
            EXPECT_EQ(got.site_observed_rate, want.site_observed_rate)
                << name;
            EXPECT_EQ(got.bus_utilization, want.bus_utilization) << name;
        }
    }
    EXPECT_EQ(next, golden.size());
}

TEST(Simulator, Deterministic) {
    const auto sys = sa::figure1_system();
    const std::vector<long> caps(9, 4);
    ss::SimConfig cfg;
    cfg.horizon = 500.0;
    cfg.warmup = 50.0;
    const auto a = ss::simulate(sys, caps, cfg);
    const auto b = ss::simulate(sys, caps, cfg);
    EXPECT_EQ(a.lost, b.lost);
    EXPECT_EQ(a.offered, b.offered);
    EXPECT_EQ(a.delivered, b.delivered);
}

TEST(Simulator, EventsFiredIsDeterministicAndGrowsWithHorizon) {
    const auto sys = sa::figure1_system();
    const std::vector<long> caps(9, 4);
    ss::SimConfig cfg;
    cfg.horizon = 500.0;
    cfg.warmup = 50.0;
    cfg.seed = 11;
    const auto a = ss::simulate(sys, caps, cfg);
    const auto b = ss::simulate(sys, caps, cfg);
    EXPECT_EQ(a.events_fired, b.events_fired);
    // Every counted arrival and every completed hop is one fired event.
    EXPECT_GE(a.events_fired, a.total_offered() + a.total_delivered());
    cfg.horizon = 2000.0;
    const auto longer = ss::simulate(sys, caps, cfg);
    EXPECT_GT(longer.events_fired, 2 * a.events_fired);
}

TEST(Simulator, SeedsChangeRealization) {
    const auto sys = sa::figure1_system();
    const std::vector<long> caps(9, 4);
    ss::SimConfig cfg;
    cfg.horizon = 500.0;
    cfg.warmup = 50.0;
    cfg.seed = 1;
    const auto a = ss::simulate(sys, caps, cfg);
    cfg.seed = 2;
    const auto b = ss::simulate(sys, caps, cfg);
    EXPECT_NE(a.offered, b.offered);
}

TEST(Simulator, ConservationPerProcessor) {
    // offered = delivered + lost + (a few still in flight at the horizon).
    const auto sys = sa::figure1_system();
    const std::vector<long> caps(9, 3);
    ss::SimConfig cfg;
    cfg.horizon = 2000.0;
    cfg.warmup = 100.0;
    const auto r = ss::simulate(sys, caps, cfg);
    for (std::size_t p = 0; p < r.offered.size(); ++p) {
        EXPECT_GE(r.offered[p], r.delivered[p] + r.lost[p]);
        // In-flight at the end is bounded by total buffer space.
        EXPECT_LE(r.offered[p] - r.delivered[p] - r.lost[p], 9u * 3u);
    }
}

TEST(Simulator, MatchesMm1kClosedForm) {
    const double lambda = 0.8;
    const double mu = 1.0;
    const long k = 5;
    const auto sys = single_queue_system(lambda, mu);
    const std::vector<long> caps{k, 1};  // dst never sends
    const auto r = ss::simulate(sys, caps, long_config());
    const auto exact = socbuf::queueing::analyze_mm1k(
        lambda, mu, static_cast<std::size_t>(k));
    const double measured_blocking =
        static_cast<double>(r.lost[0]) /
        static_cast<double>(r.offered[0]);
    EXPECT_NEAR(measured_blocking, exact.blocking_probability, 0.006);
    EXPECT_NEAR(r.bus_utilization[0],
                exact.utilization, 0.01);
    EXPECT_NEAR(r.site_mean_occupancy[0], exact.mean_occupancy, 0.1);
}

class Mm1kSimSweep
    : public ::testing::TestWithParam<std::tuple<double, long>> {};

TEST_P(Mm1kSimSweep, BlockingTracksTheory) {
    const auto [lambda, k] = GetParam();
    const auto sys = single_queue_system(lambda, 1.0);
    const std::vector<long> caps{k, 1};
    const auto r = ss::simulate(sys, caps, long_config(42));
    const auto exact = socbuf::queueing::analyze_mm1k(
        lambda, 1.0, static_cast<std::size_t>(k));
    const double measured = static_cast<double>(r.lost[0]) /
                            static_cast<double>(r.offered[0]);
    EXPECT_NEAR(measured, exact.blocking_probability,
                0.01 + 0.1 * exact.blocking_probability)
        << "lambda=" << lambda << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    Loads, Mm1kSimSweep,
    ::testing::Values(std::make_tuple(0.5, 3L), std::make_tuple(0.8, 5L),
                      std::make_tuple(0.95, 8L), std::make_tuple(1.2, 4L),
                      std::make_tuple(2.0, 6L)));

TEST(Simulator, ZeroCapacityLosesEverything) {
    const auto sys = single_queue_system(1.0, 1.0);
    const std::vector<long> caps{0, 1};
    ss::SimConfig cfg;
    cfg.horizon = 1000.0;
    cfg.warmup = 0.0;
    const auto r = ss::simulate(sys, caps, cfg);
    EXPECT_GT(r.offered[0], 0u);
    EXPECT_EQ(r.lost[0], r.offered[0]);
    EXPECT_EQ(r.delivered[0], 0u);
}

TEST(Simulator, BiggerBuffersNeverLoseMoreOnAverage) {
    const auto sys = single_queue_system(0.9, 1.0);
    ss::SimConfig cfg = long_config(7);
    const auto small = ss::simulate(sys, {2, 1}, cfg);
    const auto big = ss::simulate(sys, {10, 1}, cfg);
    EXPECT_GT(small.lost[0], big.lost[0]);
}

TEST(Simulator, LossAttributionCrossesBridges) {
    // Starve a bridge buffer: losses there must be charged to the ORIGIN.
    auto sys = sa::figure1_system();
    sys.flows.clear();
    sys.flows.push_back({1, 4, 1.0, 1.0, 0.0, 0.0});  // proc 2 -> proc 5
    const auto sites = sa::enumerate_buffer_sites(sys.architecture);
    std::vector<long> caps(sites.size(), 8);
    // First bridge hop (b->f) gets capacity 1: heavy bridge loss.
    const auto bridge_hop = sa::bridge_site(sys.architecture, 0,
                                            sys.architecture.processor(1).bus);
    caps[bridge_hop] = 1;
    ss::SimConfig cfg;
    cfg.horizon = 5000.0;
    cfg.warmup = 100.0;
    const auto r = ss::simulate(sys, caps, cfg);
    EXPECT_GT(r.site_losses[bridge_hop], 0u);
    EXPECT_EQ(r.lost[1], r.site_losses[bridge_hop]);  // charged to origin
    for (std::size_t p = 0; p < r.lost.size(); ++p)
        if (p != 1) { EXPECT_EQ(r.lost[p], 0u); }
}

TEST(Simulator, TimeoutPolicyDropsSlowPackets) {
    const auto sys = single_queue_system(0.95, 1.0);
    ss::SimConfig cfg = long_config(3);
    const auto base = ss::simulate(sys, {8, 1}, cfg);
    ss::SimConfig tmo = cfg;
    tmo.timeout_enabled = true;
    tmo.timeout_threshold = 0.5;  // well below typical waits at rho=0.95
    const auto dropped = ss::simulate(sys, {8, 1}, tmo);
    EXPECT_GT(dropped.lost[0], base.lost[0]);
}

TEST(Simulator, TimeoutThresholdCalibration) {
    const auto sys = single_queue_system(0.9, 1.0);
    socbuf::exec::Executor serial(1);
    const double thr =
        ss::calibrate_timeout(sys, {6, 1}, long_config(9), 1.0, serial)
            .global_threshold;
    // Mean wait of an M/M/1/6 at rho=0.9 is around a few service times.
    EXPECT_GT(thr, 0.5);
    EXPECT_LT(thr, 10.0);
    const auto per_site =
        ss::calibrate_timeout(sys, {6, 1}, long_config(9), 2.0, serial)
            .site_thresholds;
    ASSERT_EQ(per_site.size(), 2u);
    EXPECT_NEAR(per_site[0], 2.0 * thr, 0.7 * thr);
    EXPECT_GT(per_site[1], 0.0);  // fallback for the silent site
}

TEST(Simulator, FannedCalibrationWithOneReplicationMatchesSerialBitForBit) {
    // The executor-fanned calibration at one replication must reproduce
    // the paper's calibration exactly: one no-timeout simulation, its
    // overall mean wait and its per-site mean waits (a site with no
    // served packets falling back to the overall mean), each scaled.
    const auto sys = single_queue_system(0.9, 1.0);
    const std::vector<long> caps{6, 1};
    const ss::SimConfig cfg = long_config(9);
    const double scale = 2.0;

    ss::SimConfig no_timeout = cfg;
    no_timeout.timeout_enabled = false;
    const ss::SimResult run = ss::simulate(sys, caps, no_timeout);
    const double mean_wait = run.overall_mean_wait();
    std::vector<double> expected_site(run.site_mean_wait.size());
    for (std::size_t s = 0; s < expected_site.size(); ++s)
        expected_site[s] =
            std::max(run.site_served[s] > 0 ? run.site_mean_wait[s]
                                            : mean_wait,
                     1e-9) *
            scale;
    ASSERT_EQ(run.site_served[1], 0u);  // the fallback is exercised

    for (const std::size_t workers : {1UL, 4UL}) {
        socbuf::exec::Executor executor(workers);
        const ss::TimeoutCalibration fanned =
            ss::calibrate_timeout(sys, caps, cfg, scale, executor, 1);
        EXPECT_EQ(fanned.global_threshold, scale * mean_wait)
            << "workers=" << workers;
        EXPECT_EQ(fanned.site_thresholds, expected_site)
            << "workers=" << workers;
    }
}

TEST(Simulator, FannedCalibrationIsBitIdenticalForAnyWorkerCount) {
    const auto sys = sa::figure1_system();
    const std::vector<long> caps(9, 4);
    ss::SimConfig cfg;
    cfg.horizon = 2000.0;
    cfg.warmup = 200.0;
    cfg.seed = 7;

    socbuf::exec::Executor serial(1);
    const ss::TimeoutCalibration reference =
        ss::calibrate_timeout(sys, caps, cfg, 4.0, serial, 6);
    EXPECT_GT(reference.global_threshold, 0.0);
    for (const double threshold : reference.site_thresholds)
        EXPECT_GT(threshold, 0.0);
    for (const std::size_t threads : {2UL, 4UL}) {
        socbuf::exec::Executor executor(threads);
        const ss::TimeoutCalibration fanned =
            ss::calibrate_timeout(sys, caps, cfg, 4.0, executor, 6);
        EXPECT_EQ(fanned.global_threshold, reference.global_threshold)
            << "threads=" << threads;
        EXPECT_EQ(fanned.site_thresholds, reference.site_thresholds)
            << "threads=" << threads;
    }

    // Averaging over replications changes the thresholds (each
    // replication is an independent realization), so the knob is real.
    const ss::TimeoutCalibration single =
        ss::calibrate_timeout(sys, caps, cfg, 4.0, serial, 1);
    EXPECT_NE(single.global_threshold, reference.global_threshold);
}

TEST(Simulator, RejectsBadConfig) {
    const auto sys = single_queue_system(1.0, 1.0);
    ss::SimConfig cfg;
    cfg.horizon = 10.0;
    cfg.warmup = 20.0;  // warmup past horizon
    EXPECT_THROW(ss::simulate(sys, {1, 1}, cfg),
                 socbuf::util::ContractViolation);
    ss::SimConfig cfg2;
    EXPECT_THROW(ss::simulate(sys, {1}, cfg2),
                 socbuf::util::ContractViolation);
    ss::SimConfig cfg3;
    cfg3.timeout_enabled = true;  // no threshold given
    EXPECT_THROW(ss::simulate(sys, {1, 1}, cfg3),
                 socbuf::util::ContractViolation);
}

TEST(Simulator, ReplicationAveragesAreStable) {
    const auto sys = single_queue_system(0.9, 1.0);
    ss::SimConfig cfg;
    cfg.horizon = 3000.0;
    cfg.warmup = 200.0;
    socbuf::exec::Executor serial(1);
    const auto reps = ss::replicate_losses(sys, {4, 1}, cfg, 5, serial);
    ASSERT_EQ(reps.mean_lost_per_processor.size(), 2u);
    EXPECT_GT(reps.mean_lost_per_processor[0], 0.0);
    EXPECT_GT(reps.stddev_lost_per_processor[0], 0.0);
    EXPECT_NEAR(reps.mean_total_lost, reps.mean_lost_per_processor[0], 1e-9);
}
