#include "ctmc/birth_death.hpp"
#include "ctmc/generator.hpp"
#include "ctmc/stationary.hpp"
#include "util/contracts.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

namespace sc = socbuf::ctmc;

namespace {

/// Two-state chain 0 <-> 1 with rates a (0->1) and b (1->0):
/// pi = (b, a) / (a+b).
sc::Generator two_state(double a, double b) {
    sc::Generator g(2);
    g.set_rate(0, 1, a);
    g.set_rate(1, 0, b);
    return g;
}

}  // namespace

TEST(Generator, DiagonalIsMaintained) {
    sc::Generator g(3);
    g.set_rate(0, 1, 2.0);
    g.add_rate(0, 2, 1.0);
    EXPECT_DOUBLE_EQ(g.rate(0, 0), -3.0);
    EXPECT_DOUBLE_EQ(g.exit_rate(0), 3.0);
    g.set_rate(0, 1, 0.5);  // overwrite adjusts the diagonal
    EXPECT_DOUBLE_EQ(g.exit_rate(0), 1.5);
    EXPECT_NO_THROW(g.validate());
}

TEST(Generator, ValidateCatchesBrokenRows) {
    sc::Generator g(2);
    g.set_rate(0, 1, 1.0);
    EXPECT_NO_THROW(g.validate());
    EXPECT_THROW(g.set_rate(0, 0, 1.0), socbuf::util::ContractViolation);
    EXPECT_THROW(g.set_rate(0, 1, -2.0), socbuf::util::ContractViolation);
}

TEST(Generator, MaxExitRate) {
    sc::Generator g = two_state(3.0, 1.0);
    EXPECT_DOUBLE_EQ(g.max_exit_rate(), 3.0);
}

TEST(Generator, UniformizedRowsAreStochastic) {
    sc::Generator g = two_state(2.0, 1.0);
    const auto p = g.uniformized(4.0);
    for (std::size_t r = 0; r < 2; ++r) {
        double row = 0.0;
        for (std::size_t c = 0; c < 2; ++c) {
            EXPECT_GE(p(r, c), 0.0);
            row += p(r, c);
        }
        EXPECT_NEAR(row, 1.0, 1e-12);
    }
    EXPECT_THROW(g.uniformized(1.0), socbuf::util::ContractViolation);
}

TEST(Stationary, TwoStateClosedForm) {
    const double a = 2.0;
    const double b = 3.0;
    sc::Generator g = two_state(a, b);
    const auto pi = sc::stationary_direct(g);
    EXPECT_NEAR(pi[0], b / (a + b), 1e-12);
    EXPECT_NEAR(pi[1], a / (a + b), 1e-12);
    EXPECT_LT(sc::stationarity_residual(g, pi), 1e-12);
}

TEST(Stationary, DirectAndPowerAgree) {
    sc::Generator g(4);
    // A little ring with asymmetric shortcuts.
    g.set_rate(0, 1, 1.0);
    g.set_rate(1, 2, 2.0);
    g.set_rate(2, 3, 1.5);
    g.set_rate(3, 0, 0.5);
    g.set_rate(2, 0, 0.7);
    g.set_rate(1, 3, 0.2);
    const auto direct = sc::stationary_direct(g);
    const auto power = sc::stationary_power(g);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_NEAR(direct[i], power[i], 1e-8);
}

/// The uniformized gather form of `g` at rate `lambda`: row t lists the
/// jumps into t by source state.
sc::GatherChain gather_chain(const sc::Generator& g, double lambda) {
    const std::size_t n = g.size();
    sc::GatherChain chain;
    chain.offset.push_back(0);
    for (std::size_t t = 0; t < n; ++t) {
        for (std::size_t s = 0; s < n; ++s)
            if (s != t && g.rate(s, t) > 0.0) {
                chain.source.push_back(static_cast<std::uint32_t>(s));
                chain.probability.push_back(g.rate(s, t) / lambda);
            }
        chain.offset.push_back(
            static_cast<std::uint32_t>(chain.source.size()));
        chain.stay.push_back(1.0 - g.exit_rate(t) / lambda);
    }
    return chain;
}

TEST(Stationary, GatherGaussSeidelMatchesDirect) {
    sc::Generator g(4);
    g.set_rate(0, 1, 1.0);
    g.set_rate(1, 2, 2.0);
    g.set_rate(2, 3, 1.5);
    g.set_rate(3, 0, 0.5);
    g.set_rate(2, 0, 0.7);
    g.set_rate(1, 3, 0.2);
    const auto direct = sc::stationary_direct(g);
    const auto gs = sc::stationary_gauss_seidel(
        gather_chain(g, g.max_exit_rate() * 1.05), 1e-13, 10000);
    EXPECT_GT(gs.sweeps, 0u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_NEAR(gs.pi[i], direct[i], 1e-11);
}

TEST(Stationary, GatherGaussSeidelKeepsANeverLeavingState) {
    // State 1 has no exit (stay 1), so its balance equation says nothing
    // about pi[1]; the sweep must keep its mass rather than divide by 0.
    sc::Generator g(2);
    g.set_rate(0, 1, 1.0);
    const auto gs = sc::stationary_gauss_seidel(gather_chain(g, 2.0), 1e-12,
                                                100);
    EXPECT_EQ(gs.pi[0], 0.0);
    EXPECT_EQ(gs.pi[1], 1.0);
}

TEST(Stationary, GatherGaussSeidelRejectsANonFiniteDistribution) {
    // A NaN probability makes every entry NaN in the first sweep, and a
    // huge one overflows the total within a few; std::max drops a NaN
    // change, so neither may come back as a converged distribution.
    const auto two_state_chain = [](double p01, double p10) {
        sc::GatherChain chain;
        chain.offset = {0, 1, 2};
        chain.source = {1, 0};
        chain.probability = {p10, p01};
        chain.stay = {0.5, 0.5};
        return chain;
    };
    EXPECT_THROW((void)sc::stationary_gauss_seidel(
                     two_state_chain(0.5, std::nan("")), 1e-12, 100),
                 socbuf::util::NumericalError);
    EXPECT_THROW((void)sc::stationary_gauss_seidel(two_state_chain(0.5, 1e308),
                                                   1e-12, 100),
                 socbuf::util::NumericalError);
}

TEST(Stationary, NormalizationHolds) {
    sc::Generator g = two_state(0.1, 0.9);
    const auto pi = sc::stationary_direct(g);
    EXPECT_NEAR(pi[0] + pi[1], 1.0, 1e-12);
}

TEST(BirthDeath, MatchesDirectSolver) {
    const std::vector<double> births{1.0, 0.8, 0.6};
    const std::vector<double> deaths{1.5, 1.5, 1.5};
    const auto closed = sc::birth_death_stationary(births, deaths);

    sc::Generator g(4);
    for (std::size_t i = 0; i < 3; ++i) {
        g.set_rate(i, i + 1, births[i]);
        g.set_rate(i + 1, i, deaths[i]);
    }
    const auto direct = sc::stationary_direct(g);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_NEAR(closed[i], direct[i], 1e-12);
}

TEST(BirthDeath, RejectsBadRates) {
    EXPECT_THROW(sc::birth_death_stationary({1.0}, {}),
                 socbuf::util::ContractViolation);
    EXPECT_THROW(sc::birth_death_stationary({1.0}, {0.0}),
                 socbuf::util::ContractViolation);
    EXPECT_THROW(sc::birth_death_stationary({-1.0}, {1.0}),
                 socbuf::util::ContractViolation);
}

class Mm1kClosedFormTest
    : public ::testing::TestWithParam<std::tuple<double, double, int>> {};

TEST_P(Mm1kClosedFormTest, GeometricFormula) {
    const auto [lambda, mu, k] = GetParam();
    const auto pi = sc::mm1k_stationary(lambda, mu, k);
    ASSERT_EQ(pi.size(), static_cast<std::size_t>(k + 1));
    const double rho = lambda / mu;
    // pi_n = rho^n (1-rho) / (1-rho^{K+1}) for rho != 1.
    double norm = 0.0;
    for (int n = 0; n <= k; ++n) norm += std::pow(rho, n);
    for (int n = 0; n <= k; ++n)
        EXPECT_NEAR(pi[n], std::pow(rho, n) / norm, 1e-10)
            << "n=" << n << " rho=" << rho;
}

INSTANTIATE_TEST_SUITE_P(
    Loads, Mm1kClosedFormTest,
    ::testing::Values(std::make_tuple(0.5, 1.0, 4),
                      std::make_tuple(0.9, 1.0, 8),
                      std::make_tuple(2.0, 1.0, 3),
                      std::make_tuple(1.0, 2.0, 16),
                      std::make_tuple(3.3, 1.7, 6)));

TEST(Mm1k, CriticalLoadIsUniform) {
    const auto pi = sc::mm1k_stationary(1.0, 1.0, 5);
    for (std::size_t i = 0; i <= 5; ++i) EXPECT_NEAR(pi[i], 1.0 / 6.0, 1e-12);
}
