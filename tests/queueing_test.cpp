#include "ctmc/birth_death.hpp"
#include "queueing/mm1k.hpp"
#include "util/contracts.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace sq = socbuf::queueing;

TEST(Mm1k, BlockingMatchesStationaryTail) {
    const double lambda = 0.8;
    const double mu = 1.0;
    const std::size_t k = 5;
    const auto m = sq::analyze_mm1k(lambda, mu, k);
    const auto pi = socbuf::ctmc::mm1k_stationary(lambda, mu, k);
    EXPECT_NEAR(m.blocking_probability, pi[k], 1e-12);
    EXPECT_NEAR(m.loss_rate, lambda * pi[k], 1e-12);
    EXPECT_NEAR(m.throughput + m.loss_rate, lambda, 1e-12);
    EXPECT_NEAR(m.utilization, 1.0 - pi[0], 1e-12);
}

TEST(Mm1k, LittleLawConsistency) {
    const auto m = sq::analyze_mm1k(0.9, 1.0, 10);
    EXPECT_NEAR(m.mean_occupancy, m.throughput * m.mean_sojourn, 1e-12);
}

TEST(Mm1k, BlockingDecreasesWithCapacity) {
    double previous = 1.0;
    for (std::size_t k = 1; k <= 12; ++k) {
        const double b = sq::analyze_mm1k(0.95, 1.0, k).blocking_probability;
        EXPECT_LT(b, previous) << "k=" << k;
        previous = b;
    }
}

TEST(Mm1k, OverloadedQueueKeepsLosing) {
    // rho = 2: even large buffers lose about half the traffic.
    const auto m = sq::analyze_mm1k(2.0, 1.0, 64);
    EXPECT_NEAR(m.blocking_probability, 0.5, 1e-6);
}

TEST(Mm1k, RejectsBadArguments) {
    EXPECT_THROW((void)sq::analyze_mm1k(-1.0, 1.0, 3),
                 socbuf::util::ContractViolation);
    EXPECT_THROW((void)sq::analyze_mm1k(1.0, 0.0, 3),
                 socbuf::util::ContractViolation);
    EXPECT_THROW((void)sq::analyze_mm1k(1.0, 1.0, 0),
                 socbuf::util::ContractViolation);
}

TEST(Mm1k, SingleSlotBlockingIsRhoOverOnePlusRho) {
    // M/M/1/1 (no waiting room) blocks with probability rho/(1+rho),
    // the one-server Erlang-B value.
    const double rho = 0.7;
    const auto m = sq::analyze_mm1k(rho, 1.0, 1);
    EXPECT_NEAR(m.blocking_probability, rho / (1.0 + rho), 1e-12);
}
