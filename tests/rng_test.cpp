#include "rng/engine.hpp"
#include "util/contracts.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace sr = socbuf::rng;

TEST(Rng, DeterministicAcrossInstances) {
    sr::RandomEngine a(42);
    sr::RandomEngine b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
    sr::RandomEngine a(1);
    sr::RandomEngine b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        if (a.uniform() == b.uniform()) ++equal;
    EXPECT_LT(equal, 4);
}

TEST(Rng, SpawnIsStableAndDecorrelated) {
    sr::RandomEngine parent(7);
    sr::RandomEngine c1 = parent.spawn(3);
    sr::RandomEngine c2 = parent.spawn(3);
    sr::RandomEngine c3 = parent.spawn(4);
    EXPECT_DOUBLE_EQ(c1.uniform(), c2.uniform());
    // Stream 4 should not track stream 3.
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        if (c1.uniform() == c3.uniform()) ++equal;
    EXPECT_LT(equal, 4);
}

TEST(Rng, UniformStaysInOpenInterval) {
    sr::RandomEngine e(11);
    for (int i = 0; i < 10000; ++i) {
        const double u = e.uniform();
        EXPECT_GT(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRange) {
    sr::RandomEngine e(13);
    for (int i = 0; i < 1000; ++i) {
        const double u = e.uniform(5.0, 6.0);
        EXPECT_GT(u, 5.0);
        EXPECT_LT(u, 6.0);
    }
    EXPECT_THROW(e.uniform(2.0, 1.0), socbuf::util::ContractViolation);
}

TEST(Rng, ExponentialMeanMatchesRate) {
    sr::RandomEngine e(17);
    const double rate = 2.5;
    double total = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) total += e.exponential(rate);
    const double mean = total / n;
    EXPECT_NEAR(mean, 1.0 / rate, 0.01);
    EXPECT_THROW(e.exponential(0.0), socbuf::util::ContractViolation);
}

TEST(Rng, ExponentialMemorylessTail) {
    // P(X > t) = exp(-rate t): check at one point.
    sr::RandomEngine e(19);
    const double rate = 1.0;
    int exceed = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        if (e.exponential(rate) > 1.0) ++exceed;
    EXPECT_NEAR(static_cast<double>(exceed) / n, std::exp(-1.0), 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
    sr::RandomEngine e(23);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const long v = e.uniform_int(-1, 1);
        EXPECT_GE(v, -1);
        EXPECT_LE(v, 1);
        saw_lo |= (v == -1);
        saw_hi |= (v == 1);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, DiscreteFollowsWeights) {
    sr::RandomEngine e(31);
    const std::vector<double> w{1.0, 0.0, 3.0};
    std::vector<int> counts(3, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i) ++counts[e.discrete(w)];
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.01);
    EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.01);
    EXPECT_THROW(e.discrete({0.0, 0.0}), socbuf::util::ContractViolation);
    EXPECT_THROW(e.discrete({}), socbuf::util::ContractViolation);
}

TEST(Rng, SplitMix64KnownToBeNonTrivial) {
    std::uint64_t s = 0;
    const auto a = sr::splitmix64(s);
    const auto b = sr::splitmix64(s);
    EXPECT_NE(a, b);
    EXPECT_NE(a, 0u);
}
