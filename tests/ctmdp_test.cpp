#include "arch/presets.hpp"
#include "core/subsystem_model.hpp"
#include "ctmc/birth_death.hpp"
#include "ctmdp/lp_solver.hpp"
#include "ctmdp/model.hpp"
#include "ctmdp/occupation.hpp"
#include "ctmdp/policy.hpp"
#include "ctmdp/policy_iteration.hpp"
#include "ctmdp/solve_cache.hpp"
#include "ctmdp/solver.hpp"
#include "ctmdp/value_iteration.hpp"
#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "split/splitter.hpp"
#include "util/contracts.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace sm = socbuf::ctmdp;

namespace {

/// Two-state toy with a hand-computable optimum.
/// State 0 offers: A (rate 1 -> state 1, cost 2) giving average cost 4/3,
/// or B (rate 4 -> state 1, cost 3) giving average cost 1. B is optimal.
sm::CtmdpModel two_state_toy() {
    sm::CtmdpBuilder b(2);
    b.add_action(0, {{1, 1.0}}, 2.0);
    b.add_action(0, {{1, 4.0}}, 3.0);
    b.add_action(1, {{0, 2.0}}, 0.0);
    return std::move(b).freeze();
}

/// Single M/M/1/K queue as a (single-action) CTMDP whose average cost is
/// the closed-form loss rate.
sm::CtmdpModel mm1k_model(double lambda, double mu, std::size_t k) {
    sm::CtmdpBuilder b(k + 1);
    for (std::size_t i = 0; i <= k; ++i) {
        std::vector<sm::Transition> moves;
        if (i < k) moves.push_back({i + 1, lambda});
        if (i > 0) moves.push_back({i - 1, mu});
        b.add_action(i, moves, (i == k) ? lambda : 0.0);  // loss while full
    }
    return std::move(b).freeze();
}

/// Random strongly-connected CTMDP for solver cross-validation.
sm::CtmdpModel random_model(unsigned seed, std::size_t n_states,
                            std::size_t n_actions) {
    std::mt19937_64 gen(seed);
    std::uniform_real_distribution<double> rate(0.2, 3.0);
    std::uniform_real_distribution<double> cost(0.0, 5.0);
    sm::CtmdpBuilder b(n_states);
    for (std::size_t s = 0; s < n_states; ++s) {
        for (std::size_t a = 0; a < n_actions; ++a) {
            // A guaranteed ring edge keeps every policy irreducible.
            std::vector<sm::Transition> moves{{(s + 1) % n_states, rate(gen)}};
            const std::size_t other = gen() % n_states;
            if (other != s) moves.push_back({other, rate(gen)});
            b.add_action(s, moves, cost(gen));
        }
    }
    return std::move(b).freeze();
}

}  // namespace

TEST(Model, IndexingRoundTrips) {
    const auto m = two_state_toy();
    EXPECT_EQ(m.state_count(), 2u);
    EXPECT_EQ(m.action_count(0), 2u);
    EXPECT_EQ(m.action_count(1), 1u);
    EXPECT_EQ(m.pair_count(), 3u);
    for (std::size_t p = 0; p < m.pair_count(); ++p) {
        EXPECT_EQ(m.pair_index(m.pair_state(p), m.pair_action(p)), p);
    }
}

TEST(Model, ExitRatesIgnoreSelfLoops) {
    sm::CtmdpBuilder b(2);
    b.add_action(0, {{0, 5.0}, {1, 2.0}});  // self-loop rate must not count
    b.add_action(1, {{0, 1.0}});
    const auto m = std::move(b).freeze();
    EXPECT_DOUBLE_EQ(m.exit_rate(0, 0), 2.0);
    EXPECT_DOUBLE_EQ(m.max_exit_rate(), 2.0);
}

TEST(Model, FreezeCatchesStructuralErrors) {
    EXPECT_THROW((void)sm::CtmdpBuilder(0).freeze(),
                 socbuf::util::ModelError);

    // State 1 never receives an action.
    sm::CtmdpBuilder no_action(2);
    no_action.add_action(0, {{0, 1.0}});
    try {
        (void)std::move(no_action).freeze();
        FAIL() << "a state without actions must not freeze";
    } catch (const socbuf::util::ModelError& e) {
        EXPECT_NE(std::string(e.what()).find("state s1 has no actions"),
                  std::string::npos)
            << e.what();
    }

    sm::CtmdpBuilder bad_target(1);
    EXPECT_THROW(bad_target.add_action(0, {{5, 1.0}}),
                 socbuf::util::ModelError);
}

TEST(LpSolver, FindsKnownOptimum) {
    const auto m = two_state_toy();
    const auto r = sm::solve_average_cost_lp(m);
    ASSERT_EQ(r.status, socbuf::lp::SolveStatus::kOptimal);
    EXPECT_NEAR(r.average_cost, 1.0, 1e-8);
    // Optimal policy picks B deterministically in state 0.
    EXPECT_NEAR(r.policy.probability(0, 1), 1.0, 1e-6);
    EXPECT_TRUE(r.policy.is_deterministic(1e-6));
    // State probabilities are the induced chain's stationary law.
    EXPECT_NEAR(r.state_probability[0], 1.0 / 3.0, 1e-8);
    EXPECT_NEAR(r.state_probability[1], 2.0 / 3.0, 1e-8);
}

TEST(LpSolver, OccupationSumsToOne) {
    const auto m = two_state_toy();
    const auto r = sm::solve_average_cost_lp(m);
    double total = 0.0;
    for (double x : r.occupation) total += x;
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(LpSolver, SingleActionChainReproducesMm1k) {
    const double lambda = 0.8;
    const double mu = 1.0;
    const std::size_t k = 5;
    const auto m = mm1k_model(lambda, mu, k);
    const auto r = sm::solve_average_cost_lp(m);
    ASSERT_EQ(r.status, socbuf::lp::SolveStatus::kOptimal);
    const auto pi = socbuf::ctmc::mm1k_stationary(lambda, mu, k);
    for (std::size_t i = 0; i <= k; ++i)
        EXPECT_NEAR(r.state_probability[i], pi[i], 1e-7) << "state " << i;
    EXPECT_NEAR(r.average_cost, lambda * pi[k], 1e-8);
}

TEST(ValueIteration, MatchesKnownOptimum) {
    const auto m = two_state_toy();
    const auto r = sm::relative_value_iteration(m);
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.gain, 1.0, 1e-7);
    EXPECT_EQ(r.policy.action(0), 1u);  // B
}

TEST(GaussSeidel, ConvergesToJacobisGainOnSmallModels) {
    // The in-place sweep must settle at Jacobi's fixed point on small
    // chains too: the red-black sweep it replaced diverged on most of
    // these, and on some reported an infinite gain as converged.
    std::vector<std::pair<std::string, sm::CtmdpModel>> models;
    models.emplace_back("two_state_toy", two_state_toy());
    for (unsigned seed = 1; seed <= 5; ++seed)
        models.emplace_back("random_model seed " + std::to_string(seed),
                            random_model(seed, 3 + seed % 4, 2 + seed % 2));
    for (unsigned seed = 11; seed <= 14; ++seed)
        models.emplace_back("40-state seed " + std::to_string(seed),
                            random_model(seed, 40, 2));
    sm::ViOptions jacobi;
    jacobi.sweep = sm::ViSweep::kJacobi;
    jacobi.tolerance = 1e-9;
    sm::ViOptions gs = jacobi;
    gs.sweep = sm::ViSweep::kGaussSeidel;
    for (const auto& [name, m] : models) {
        const auto rj = sm::relative_value_iteration(m, jacobi);
        const auto rg = sm::relative_value_iteration(m, gs);
        ASSERT_TRUE(rj.converged) << name;
        ASSERT_TRUE(rg.converged) << name;
        EXPECT_NEAR(rg.gain, rj.gain, 1e-6) << name;
        EXPECT_EQ(rg.bias[0], 0.0) << name;
    }
}

TEST(ValueIteration, NonFiniteValuesNeverCountAsConverged) {
    // A sweep's min/max folds drop NaN operands, so an overflowed
    // iterate can show a residual below the tolerance. Neither sweep may
    // call that converged, nor report a non-finite gain as converged.
    const auto ring = [](double cost, double rate) {
        sm::CtmdpBuilder b(3);
        for (std::size_t s = 0; s < 3; ++s)
            b.add_action(s, {{(s + 1) % 3, rate}}, cost);
        return std::move(b).freeze();
    };
    // cost / lambda overflows: every value is inf, then inf - inf = NaN.
    const auto overflow = ring(1e300, 1e-9);
    // Finite values, but Jacobi's span midpoint overflows.
    const auto huge_gain = ring(1e308, 1.0);
    for (const auto sweep : {sm::ViSweep::kJacobi, sm::ViSweep::kGaussSeidel}) {
        sm::ViOptions options;
        options.sweep = sweep;
        options.tolerance = 1e-9;
        const char* name =
            sweep == sm::ViSweep::kJacobi ? "jacobi" : "gauss-seidel";
        EXPECT_FALSE(sm::relative_value_iteration(overflow, options).converged)
            << name;
        const auto r = sm::relative_value_iteration(huge_gain, options);
        EXPECT_TRUE(!r.converged || std::isfinite(r.gain)) << name;
    }
}

TEST(PolicyIteration, MatchesKnownOptimum) {
    const auto m = two_state_toy();
    const auto r = sm::policy_iteration(m);
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.gain, 1.0, 1e-9);
    EXPECT_EQ(r.policy.action(0), 1u);
    EXPECT_LE(r.policy_updates, 5u);
}

TEST(PolicyEvaluation, AverageCostOfFixedPolicy) {
    const auto m = two_state_toy();
    // Force the suboptimal action A: average cost 4/3.
    const auto all_a = sm::RandomizedPolicy::from_deterministic(
        sm::DeterministicPolicy({0, 0}), m);
    EXPECT_NEAR(sm::average_cost_of_policy(m, all_a), 4.0 / 3.0, 1e-8);
}

class SolverAgreementTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(SolverAgreementTest, LpViAndPiAgreeOnRandomModels) {
    const unsigned seed = GetParam();
    const auto m = random_model(seed, 3 + seed % 4, 2 + seed % 2);
    const auto lp = sm::solve_average_cost_lp(m);
    ASSERT_EQ(lp.status, socbuf::lp::SolveStatus::kOptimal);
    const auto vi = sm::relative_value_iteration(m);
    ASSERT_TRUE(vi.converged);
    const auto pi = sm::policy_iteration(m);
    ASSERT_TRUE(pi.converged);
    EXPECT_NEAR(lp.average_cost, vi.gain, 1e-6) << "seed " << seed;
    EXPECT_NEAR(vi.gain, pi.gain, 1e-6) << "seed " << seed;
    // The LP's policy really achieves the LP's objective value.
    EXPECT_NEAR(sm::average_cost_of_policy(m, lp.policy), lp.average_cost,
                1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverAgreementTest,
                         ::testing::Range(1u, 16u));

TEST(Policy, RandomizedPolicyValidation) {
    EXPECT_THROW(sm::RandomizedPolicy({{0.5, 0.4}}),  // sums to 0.9
                 socbuf::util::ContractViolation);
    const sm::RandomizedPolicy p({{0.25, 0.75}});
    EXPECT_NEAR(p.probability(0, 1), 0.75, 1e-12);
    EXPECT_EQ(p.switching_state_count(), 1u);
    EXPECT_EQ(p.mode().action(0), 1u);
}

TEST(Policy, SamplingFollowsDistribution) {
    const sm::RandomizedPolicy p({{0.2, 0.8}});
    socbuf::rng::RandomEngine eng(99);
    int ones = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        if (p.sample(0, eng) == 1) ++ones;
    EXPECT_NEAR(static_cast<double>(ones) / n, 0.8, 0.02);
}

TEST(Policy, InducedGeneratorMixesActions) {
    const auto m = two_state_toy();
    const sm::RandomizedPolicy mix({{0.5, 0.5}, {1.0}});
    const auto gen = sm::induced_generator(m, mix);
    // Mixed rate out of state 0: 0.5*1 + 0.5*4 = 2.5.
    EXPECT_NEAR(gen.rate(0, 1), 2.5, 1e-12);
    EXPECT_NEAR(gen.rate(1, 0), 2.0, 1e-12);
}

TEST(Occupation, PolicyOccupationMatchesLp) {
    const auto m = two_state_toy();
    const auto lp = sm::solve_average_cost_lp(m);
    const auto occ = sm::occupation_of_policy(m, lp.policy);
    ASSERT_EQ(occ.size(), lp.occupation.size());
    for (std::size_t i = 0; i < occ.size(); ++i)
        EXPECT_NEAR(occ[i], lp.occupation[i], 1e-7);
}

TEST(Occupation, MarginalsAndQuantiles) {
    // pi over 4 states mapping to feature k = state % 2.
    const socbuf::linalg::Vector pi{0.1, 0.2, 0.3, 0.4};
    const auto marg = sm::state_marginal(
        pi, [](std::size_t s) { return s % 2; }, 2);
    EXPECT_NEAR(marg[0], 0.4, 1e-12);
    EXPECT_NEAR(marg[1], 0.6, 1e-12);
    EXPECT_NEAR(sm::marginal_mean(marg), 0.6, 1e-12);

    const std::vector<double> dist{0.5, 0.3, 0.15, 0.05};
    EXPECT_EQ(sm::marginal_quantile(dist, 0.5), 0u);
    EXPECT_EQ(sm::marginal_quantile(dist, 0.2), 1u);
    EXPECT_EQ(sm::marginal_quantile(dist, 0.05), 2u);
    EXPECT_EQ(sm::marginal_quantile(dist, 0.0), 3u);
    EXPECT_EQ(sm::marginal_quantile(dist, 1.0), 0u);
}

TEST(SolverRegistry, ForcedChoicesRunTheRequestedAlgorithm) {
    const auto m = two_state_toy();
    const sm::SolverRegistry registry;
    std::size_t solved_by[3] = {0, 0, 0};  // indexed by SolverKind
    for (const auto& [choice, kind] :
         {std::pair{sm::SolverChoice::kLp, sm::SolverKind::kLp},
          std::pair{sm::SolverChoice::kValueIteration,
                    sm::SolverKind::kValueIteration},
          std::pair{sm::SolverChoice::kPolicyIteration,
                    sm::SolverKind::kPolicyIteration}}) {
        sm::DispatchOptions d;
        d.choice = choice;
        const auto sol = registry.solve(m, d);
        EXPECT_EQ(sol.solved_by, kind);
        EXPECT_TRUE(sol.converged);
        EXPECT_NEAR(sol.gain, 1.0, 1e-8);  // known optimum of the toy
        ++solved_by[static_cast<std::size_t>(sol.solved_by)];
    }
    for (const std::size_t count : solved_by) EXPECT_EQ(count, 1u);
}

TEST(SolverRegistry, AllSolversAgreeOnGainPolicyAndStationary) {
    sm::SolverRegistry registry;
    for (const unsigned seed : {1u, 2u, 3u, 4u, 5u}) {
        const auto m = random_model(seed, 4 + seed % 3, 2);
        std::vector<sm::SubsystemSolution> sols;
        for (const auto choice :
             {sm::SolverChoice::kLp, sm::SolverChoice::kValueIteration,
              sm::SolverChoice::kPolicyIteration}) {
            sm::DispatchOptions d;
            d.choice = choice;
            sols.push_back(registry.solve(m, d));
        }
        for (std::size_t i = 1; i < sols.size(); ++i) {
            EXPECT_NEAR(sols[i].gain, sols[0].gain, 1e-6)
                << "seed " << seed;
            // Same greedy (modal) policy...
            EXPECT_EQ(sols[i].policy.mode(), sols[0].policy.mode())
                << "seed " << seed;
            // ...hence the same stationary distribution.
            ASSERT_EQ(sols[i].stationary.size(), sols[0].stationary.size());
            for (std::size_t s = 0; s < sols[0].stationary.size(); ++s)
                EXPECT_NEAR(sols[i].stationary[s], sols[0].stationary[s],
                            1e-6)
                    << "seed " << seed << " state " << s;
        }
    }
}

TEST(SolverRegistry, AutoEscalatesBySize) {
    const auto m = random_model(7, 6, 2);  // 6 states, 12 pairs
    sm::SolverRegistry registry;

    sm::DispatchOptions lp_sized;  // pairs fit under the LP limit
    EXPECT_EQ(registry.select(m, lp_sized), sm::SolverKind::kLp);

    sm::DispatchOptions pi_sized;  // pairs too many, states fit for PI
    pi_sized.lp_pair_limit = 4;
    EXPECT_EQ(registry.select(m, pi_sized),
              sm::SolverKind::kPolicyIteration);

    sm::DispatchOptions vi_sized;  // both limits exceeded
    vi_sized.lp_pair_limit = 4;
    vi_sized.pi_state_limit = 3;
    EXPECT_EQ(registry.select(m, vi_sized),
              sm::SolverKind::kValueIteration);

    // The escalated solves still land on the same gain.
    const auto via_lp = registry.solve(m, lp_sized);
    const auto via_pi = registry.solve(m, pi_sized);
    const auto via_vi = registry.solve(m, vi_sized);
    EXPECT_EQ(via_lp.solved_by, sm::SolverKind::kLp);
    EXPECT_EQ(via_pi.solved_by, sm::SolverKind::kPolicyIteration);
    EXPECT_EQ(via_vi.solved_by, sm::SolverKind::kValueIteration);
    EXPECT_NEAR(via_pi.gain, via_lp.gain, 1e-6);
    EXPECT_NEAR(via_vi.gain, via_lp.gain, 1e-6);
}

TEST(SolverRegistry, SolutionOccupationSumsToOne) {
    const auto m = mm1k_model(0.8, 1.0, 4);
    sm::SolverRegistry registry;
    for (const auto choice :
         {sm::SolverChoice::kLp, sm::SolverChoice::kValueIteration,
          sm::SolverChoice::kPolicyIteration}) {
        sm::DispatchOptions d;
        d.choice = choice;
        const auto sol = registry.solve(m, d);
        double mass = 0.0;
        for (const double x : sol.occupation) mass += x;
        EXPECT_NEAR(mass, 1.0, 1e-8);
        EXPECT_EQ(sol.switching_states, 0u);  // unconstrained => no mixing
    }
}

TEST(SolverRegistry, ConcurrentSolvesOnOneSharedRegistry) {
    // The registry holds no mutable state: 16 concurrent solves on one
    // const instance each report the forced algorithm and the same bits.
    const sm::SolverRegistry registry;
    const auto m = two_state_toy();
    sm::DispatchOptions d;
    d.choice = sm::SolverChoice::kValueIteration;
    std::vector<sm::SubsystemSolution> sols(16);
    socbuf::exec::ThreadPool pool(4);
    socbuf::exec::parallel_for_index(pool, sols.size(), [&](std::size_t i) {
        sols[i] = registry.solve(m, d);
    });
    for (const auto& sol : sols) {
        EXPECT_EQ(sol.solved_by, sm::SolverKind::kValueIteration);
        EXPECT_EQ(sol.gain, sols[0].gain);
        EXPECT_EQ(sol.stationary, sols[0].stationary);
    }
}

TEST(Model, BandwidthAndTransitionCountTrackStructure) {
    sm::CtmdpBuilder b(5);
    b.add_action(0, {{1, 1.0}, {0, 0.0}});  // zero-rate edge: count, no band
    b.add_action(1, {{4, 2.0}});             // |4 - 1| = 3 widens the band
    for (std::size_t s = 2; s < 5; ++s) b.add_action(s, {{0, 1.0}});
    const auto m = std::move(b).freeze();
    EXPECT_EQ(m.bandwidth(), 4u);  // state 4 -> 0
    EXPECT_EQ(m.transition_count(), 6u);

    sm::CtmdpBuilder narrow(2);
    narrow.add_action(0, {{1, 1.0}, {0, 0.0}});
    narrow.add_action(1, {{0, 0.0}});  // zero rates never widen the band
    const auto n = std::move(narrow).freeze();
    EXPECT_EQ(n.bandwidth(), 1u);
    EXPECT_EQ(n.transition_count(), 3u);
}

namespace {

/// Whether every array of `m` holds exactly its elements.
void expect_exact_capacity(const sm::CtmdpModel& m, const std::string& what) {
    EXPECT_EQ(m.pair_offsets().capacity(), m.pair_offsets().size()) << what;
    EXPECT_EQ(m.transition_offsets().capacity(),
              m.transition_offsets().size())
        << what;
    EXPECT_EQ(m.targets().capacity(), m.targets().size()) << what;
    EXPECT_EQ(m.rates().capacity(), m.rates().size()) << what;
    EXPECT_EQ(m.costs().capacity(), m.costs().size()) << what;
}

}  // namespace

TEST(Model, SubsystemBuildsAreExactCapacity) {
    // The subsystem model counts itself before it is built, so the
    // builder allocates every array once, at its final size. Figure 1 has
    // a bursty flow, so modulated builds count phase flips too.
    const auto sys = socbuf::arch::figure1_system();
    const auto split = socbuf::split::split_architecture(sys);
    for (const long cap : {1L, 3L}) {
        for (std::size_t i = 0; i < split.subsystems.size(); ++i) {
            const std::vector<long> alloc(split.sites.size(), cap);
            for (const bool modulated : {false, true})
                expect_exact_capacity(
                    socbuf::core::build_subsystem_model(split, i, alloc, cap,
                                                        {}, modulated)
                        .model(),
                    split.subsystems[i].bus_name + " cap " +
                        std::to_string(cap) + (modulated ? " modulated" : ""));
        }
    }
}

namespace {

std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
        hash ^= p[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/// FNV-1a digests of one subsystem model's bytes: its solve fingerprint
/// (a hash of the five flat arrays plus the default options block) and
/// its service shares under a fixed, pair-indexed occupation vector.
std::pair<std::uint64_t, std::uint64_t> model_digests(
    const socbuf::core::SubsystemCtmdp& sub) {
    const std::string key = sm::solve_fingerprint(sub.model(), {});
    std::vector<double> occupation(sub.model().pair_count());
    for (std::size_t p = 0; p < occupation.size(); ++p)
        occupation[p] = static_cast<double>(p % 7 + 1);
    const auto shares = sub.service_shares(occupation);
    return {fnv1a(0xcbf29ce484222325ULL, key.data(), key.size()),
            fnv1a(0xcbf29ce484222325ULL, shares.data(),
                  shares.size() * sizeof(double))};
}

}  // namespace

TEST(Model, SubsystemModelBytesPinned) {
    // Cross-version oracle for the subsystem model builder: every Figure 1
    // bus at caps 1-3, Poisson and modulated, and one np ingress bus must
    // build the same arrays and the same pair -> served-flow map, bit for
    // bit. Do not regenerate the digests to make a builder change pass.
    struct Golden {
        const char* name;
        std::uint64_t fingerprint;  // FNV-1a of solve_fingerprint(model, {})
        std::uint64_t shares;       // FNV-1a of the service_shares bytes
    };
    static const Golden golden[] = {
        {"figure1 bus a cap 1", 0x92f8495846582e7cULL, 0x8604ee88547fe27eULL},
        {"figure1 bus a cap 1 modulated",
         0x92f8495846582e7cULL, 0x8604ee88547fe27eULL},
        {"figure1 bus b cap 1", 0x561ff8549926999dULL, 0xdc2071f7ab72fdacULL},
        {"figure1 bus b cap 1 modulated",
         0x188af577127b0c56ULL, 0x9c2322e29e287e39ULL},
        {"figure1 bus g cap 1", 0x6719ba56f6c36731ULL, 0x8604ee88547fe27eULL},
        {"figure1 bus g cap 1 modulated",
         0x1911599372927eeULL, 0xcc18eddd8e161f99ULL},
        {"figure1 bus f cap 1", 0x75d0d34df472fd32ULL, 0x8604ee88547fe27eULL},
        {"figure1 bus f cap 1 modulated",
         0x500e8a5ab2ccee2bULL, 0xcc18eddd8e161f99ULL},
        {"figure1 bus a cap 2", 0x8906b40802ac735bULL, 0x9262333e74b2a947ULL},
        {"figure1 bus a cap 2 modulated",
         0x8906b40802ac735bULL, 0x9262333e74b2a947ULL},
        {"figure1 bus b cap 2", 0xaaf8cebe9b037294ULL, 0xda1e58b6e3eb50cULL},
        {"figure1 bus b cap 2 modulated",
         0x6a5095e48c2a3aa6ULL, 0x60671cbe1c9195a5ULL},
        {"figure1 bus g cap 2", 0xb4615f9cd322a797ULL, 0x9262333e74b2a947ULL},
        {"figure1 bus g cap 2 modulated",
         0x7bbd622c870c739dULL, 0xcdbac849a6eb2565ULL},
        {"figure1 bus f cap 2", 0xa386120faaeb6f64ULL, 0x9262333e74b2a947ULL},
        {"figure1 bus f cap 2 modulated",
         0xaec73d13765b115aULL, 0xcdbac849a6eb2565ULL},
        {"figure1 bus a cap 3", 0xef6281538a77a977ULL, 0xc4c06fe4150e4600ULL},
        {"figure1 bus a cap 3 modulated",
         0xef6281538a77a977ULL, 0xc4c06fe4150e4600ULL},
        {"figure1 bus b cap 3", 0xcf245f5e3e54b4a9ULL, 0x918e212daa08798cULL},
        {"figure1 bus b cap 3 modulated",
         0x64d91ea16c55fbdcULL, 0x9806497af025dba7ULL},
        {"figure1 bus g cap 3", 0xfe06fcdf0deba26cULL, 0xc4c06fe4150e4600ULL},
        {"figure1 bus g cap 3 modulated",
         0xece6a2452687c595ULL, 0xb1b8a95cfbae6a81ULL},
        {"figure1 bus f cap 3", 0x6d850ba955729ab1ULL, 0xc4c06fe4150e4600ULL},
        {"figure1 bus f cap 3 modulated",
         0x8b30713e72618dd5ULL, 0xb1b8a95cfbae6a81ULL},
        {"np ingress cap 2", 0x2fd6744c9cad3d9dULL, 0x361ec155482e6632ULL},
    };
    const auto sys = socbuf::arch::figure1_system();
    const auto split = socbuf::split::split_architecture(sys);
    const auto np = socbuf::arch::network_processor_system();
    const auto np_split = socbuf::split::split_architecture(np);
    struct Case {
        std::string name;
        const socbuf::split::Subsystem* sub;
        long cap;
        bool modulated;
    };
    std::vector<Case> cases;
    for (const long cap : {1L, 2L, 3L})
        for (const auto& sub : split.subsystems)
            for (const bool modulated : {false, true})
                cases.push_back({"figure1 bus " + sub.bus_name + " cap " +
                                     std::to_string(cap) +
                                     (modulated ? " modulated" : ""),
                                 &sub, cap, modulated});
    for (const auto& sub : np_split.subsystems)
        if (sub.bus_name == "ingress")
            cases.push_back({"np ingress cap 2", &sub, 2, false});
    std::ostringstream record;
    for (std::size_t c = 0; c < cases.size(); ++c) {
        const Case& tc = cases[c];
        const std::vector<long> caps(tc.sub->flows.size(), tc.cap);
        std::vector<double> rates;
        for (const auto& f : tc.sub->flows) rates.push_back(f.arrival_rate);
        const auto [fingerprint, shares] = model_digests(
            socbuf::core::SubsystemCtmdp(*tc.sub, caps, rates, tc.modulated));
        record << "        {\"" << tc.name << "\", 0x" << std::hex
               << fingerprint << "ULL, 0x" << shares << "ULL},\n"
               << std::dec;
        if (c >= std::size(golden)) continue;
        EXPECT_EQ(tc.name, golden[c].name);
        EXPECT_EQ(fingerprint, golden[c].fingerprint) << tc.name;
        EXPECT_EQ(shares, golden[c].shares) << tc.name;
    }
    EXPECT_EQ(cases.size(), std::size(golden)) << "got\n" << record.str();
}

TEST(LpSolver, GoldenBitsPinned) {
    // Cross-version oracle for the LP rung: every Figure 1 bus at caps
    // 1-3 must give the same gain bits, the same simplex pivot count and
    // the same occupation-vector bytes. Do not regenerate the values to
    // make a simplex or LP-builder change pass.
    struct Golden {
        const char* name;
        double gain;                      // hex float, exact
        std::size_t pivots;
        std::uint64_t occupation_digest;  // FNV-1a of the x(s,a) bytes
    };
    static const Golden golden[] = {
        {"figure1 bus a cap 1", 0x1.d6a3703cc3b1ap-2, 5, 0xaff6b40169b0a35eULL},
        {"figure1 bus b cap 1", 0x1.84a0335d3c998p-1, 9, 0xe2af3ef150f8f18eULL},
        {"figure1 bus g cap 1", 0x1.0410cc711b46p-1, 5, 0xd991e1e7a7147dbfULL},
        {"figure1 bus f cap 1", 0x1.0410cc711d45ap-1, 5, 0x3205b22c83e7b2dcULL},
        {"figure1 bus a cap 2", 0x1.0f0e8273b5872p-3, 11, 0x75f6ea74d01b7e19ULL},
        {"figure1 bus b cap 2", 0x1.554972061ba44p-2, 40, 0x794470c19ff9ea34ULL},
        {"figure1 bus g cap 2", 0x1.7a9e17b755a15p-3, 10, 0xe7a6d18a02ad0105ULL},
        {"figure1 bus f cap 2", 0x1.7a9e17b77a862p-3, 11, 0x29872190683feeb7ULL},
        {"figure1 bus a cap 3", 0x1.439f7d8a0e904p-5, 20, 0x2a52e90458be5ba0ULL},
        {"figure1 bus b cap 3", 0x1.5e0274fb67f4ep-3, 100, 0xb3fd76cb05c94508ULL},
        {"figure1 bus g cap 3", 0x1.2a2abf0940484p-4, 18, 0xbca9709653321addULL},
        {"figure1 bus f cap 3", 0x1.2a2abf09f6227p-4, 20, 0x65e5aed141d17160ULL},
    };
    const auto sys = socbuf::arch::figure1_system();
    const auto split = socbuf::split::split_architecture(sys);
    std::ostringstream record;
    std::size_t c = 0;
    for (const long cap : {1L, 2L, 3L}) {
        for (const auto& sub : split.subsystems) {
            const std::string name =
                "figure1 bus " + sub.bus_name + " cap " + std::to_string(cap);
            const std::vector<long> caps(sub.flows.size(), cap);
            std::vector<double> rates;
            for (const auto& f : sub.flows) rates.push_back(f.arrival_rate);
            const socbuf::core::SubsystemCtmdp model(sub, caps, rates);
            const auto r = sm::solve_average_cost_lp(model.model());
            ASSERT_EQ(r.status, socbuf::lp::SolveStatus::kOptimal) << name;
            const std::uint64_t digest =
                fnv1a(0xcbf29ce484222325ULL, r.occupation.data(),
                      r.occupation.size() * sizeof(double));
            record << "        {\"" << name << "\", " << std::hexfloat
                   << r.average_cost << std::defaultfloat << ", "
                   << r.simplex_iterations << ", 0x" << std::hex << digest
                   << "ULL},\n" << std::dec;
            if (c < std::size(golden)) {
                EXPECT_EQ(name, golden[c].name);
                EXPECT_EQ(r.average_cost, golden[c].gain) << name;
                EXPECT_EQ(r.simplex_iterations, golden[c].pivots) << name;
                EXPECT_EQ(digest, golden[c].occupation_digest) << name;
            }
            ++c;
        }
    }
    EXPECT_EQ(c, std::size(golden)) << "got\n" << record.str();
}

namespace {

/// A random model kept in nested form next to its frozen CSR twin, so
/// the frozen layout can be checked against a brute-force recount.
struct NestedModel {
    struct Act {
        std::vector<sm::Transition> moves;
        double cost = 0.0;
    };
    std::vector<std::vector<Act>> states;
};

NestedModel random_nested(unsigned seed, std::size_t n_states) {
    std::mt19937_64 gen(seed);
    std::uniform_real_distribution<double> rate(0.0, 2.0);
    NestedModel nested;
    nested.states.resize(n_states);
    for (std::size_t s = 0; s < n_states; ++s) {
        const std::size_t actions = 1 + gen() % 3;
        for (std::size_t a = 0; a < actions; ++a) {
            NestedModel::Act act;
            const std::size_t moves = gen() % 4;  // zero moves allowed
            for (std::size_t k = 0; k < moves; ++k)
                act.moves.push_back({gen() % n_states,
                                     k == 2 ? 0.0 : rate(gen)});
            act.cost = rate(gen);
            nested.states[s].push_back(act);
        }
    }
    return nested;
}

sm::CtmdpModel freeze_nested(const NestedModel& nested) {
    sm::CtmdpBuilder b(nested.states.size());
    for (std::size_t s = 0; s < nested.states.size(); ++s)
        for (const auto& act : nested.states[s])
            b.add_action(s, act.moves, act.cost);
    return std::move(b).freeze();
}

template <typename Fn>
std::string model_error_of(Fn&& fn) {
    try {
        fn();
    } catch (const socbuf::util::ModelError& e) {
        return e.what();
    }
    return "<no ModelError>";
}

}  // namespace

TEST(FrozenModel, CsrLayoutMatchesBruteForceRecount) {
    for (const unsigned seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
        const auto nested = random_nested(seed, 5 + 7 * seed);
        const auto m = freeze_nested(nested);
        ASSERT_EQ(m.state_count(), nested.states.size());

        // Offsets are monotone, start at 0 and end at the array sizes.
        const auto& po = m.pair_offsets();
        const auto& to = m.transition_offsets();
        ASSERT_EQ(po.size(), m.state_count() + 1);
        ASSERT_EQ(to.size(), m.pair_count() + 1);
        EXPECT_EQ(po.front(), 0u);
        EXPECT_EQ(to.front(), 0u);
        EXPECT_TRUE(std::is_sorted(po.begin(), po.end()));
        EXPECT_TRUE(std::is_sorted(to.begin(), to.end()));
        EXPECT_EQ(po.back(), m.pair_count());
        EXPECT_EQ(to.back(), m.transition_count());
        EXPECT_EQ(m.targets().size(), m.transition_count());
        EXPECT_EQ(m.rates().size(), m.transition_count());
        EXPECT_EQ(m.costs().size(), m.pair_count());

        std::size_t transitions = 0;
        std::size_t band = 0;
        double max_exit = 0.0;
        for (std::size_t s = 0; s < nested.states.size(); ++s) {
            ASSERT_EQ(m.action_count(s), nested.states[s].size());
            for (std::size_t a = 0; a < nested.states[s].size(); ++a) {
                const auto& act = nested.states[s][a];
                const std::size_t p = m.pair_index(s, a);
                EXPECT_EQ(m.pair_state(p), s);
                EXPECT_EQ(m.pair_action(p), a);
                EXPECT_EQ(m.costs()[p], act.cost);
                ASSERT_EQ(to[p + 1] - to[p], act.moves.size());
                double exit = 0.0;
                for (std::size_t k = 0; k < act.moves.size(); ++k) {
                    const auto& t = act.moves[k];
                    EXPECT_EQ(m.targets()[to[p] + k], t.target);
                    EXPECT_EQ(m.rates()[to[p] + k], t.rate);
                    if (t.target != s) exit += t.rate;
                    if (t.rate > 0.0)
                        band = std::max(band, t.target > s ? t.target - s
                                                           : s - t.target);
                }
                transitions += act.moves.size();
                EXPECT_EQ(m.exit_rate(s, a), exit);
                max_exit = std::max(max_exit, exit);
            }
        }
        EXPECT_EQ(m.transition_count(), transitions) << "seed " << seed;
        EXPECT_EQ(m.bandwidth(), band) << "seed " << seed;
        EXPECT_EQ(m.max_exit_rate(), max_exit) << "seed " << seed;
        // Every pair maps back to itself.
        for (std::size_t p = 0; p < m.pair_count(); ++p)
            EXPECT_EQ(m.pair_index(m.pair_state(p), m.pair_action(p)), p);
    }
}

TEST(FrozenModel, AccessorsRejectOutOfRangeIndices) {
    const auto m = two_state_toy();
    EXPECT_THROW((void)m.action_count(2), socbuf::util::ContractViolation);
    EXPECT_THROW((void)m.pair_index(1, 1), socbuf::util::ContractViolation);
    EXPECT_THROW((void)m.pair_state(3), socbuf::util::ContractViolation);
    const sm::CtmdpModel empty;
    EXPECT_EQ(empty.state_count(), 0u);
    EXPECT_EQ(empty.pair_count(), 0u);
}

TEST(CtmdpBuilder, RejectsMalformedAppendsNamingTheLabels) {
    // Out of order: state 1 already received actions.
    const std::string order = model_error_of([] {
        sm::CtmdpBuilder b(3);
        b.add_action(0, {{1, 1.0}});
        b.add_action(1, {{0, 1.0}});
        b.add_action(0, {{2, 1.0}});
    });
    EXPECT_NE(order.find("state s0"), std::string::npos) << order;
    EXPECT_NE(order.find("out of order"), std::string::npos) << order;
    EXPECT_NE(order.find("after state s1"), std::string::npos) << order;

    // Negative rate, in the list and appended on its own.
    const std::string negative = model_error_of([] {
        sm::CtmdpBuilder b(3);
        b.add_action(2, {{0, 1.0}});
        b.add_action(2, {{1, 1.0}, {0, -0.5}});
    });
    EXPECT_NE(negative.find("negative rate in action a1 of state s2"),
              std::string::npos)
        << negative;
    const std::string appended = model_error_of([] {
        sm::CtmdpBuilder b(2);
        b.add_action(1);
        b.add_transition(0, -1.0);
    });
    EXPECT_NE(appended.find("action a0 of state s1"), std::string::npos)
        << appended;

    // Non-finite rates: +inf would make max_exit_rate infinite, NaN
    // would poison every fold; both are named as non-finite.
    for (const double bad : {std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()}) {
        const std::string listed = model_error_of([bad] {
            sm::CtmdpBuilder b(3);
            b.add_action(1, {{0, 1.0}});
            b.add_action(1, {{2, bad}});
        });
        EXPECT_NE(listed.find("non-finite rate in action a1 of state s1"),
                  std::string::npos)
            << listed;
        const std::string alone = model_error_of([bad] {
            sm::CtmdpBuilder b(2);
            b.add_action(0);
            b.add_transition(1, bad);
        });
        EXPECT_NE(alone.find("non-finite rate in action a0 of state s0"),
                  std::string::npos)
            << alone;
    }

    // Non-finite costs: NaN and both infinities.
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
        const std::string cost = model_error_of([bad] {
            sm::CtmdpBuilder b(2);
            b.add_action(0, {{1, 1.0}});
            b.add_action(1, {{0, 1.0}}, 1.0);
            b.add_action(1, {{0, 2.0}}, bad);
        });
        EXPECT_NE(cost.find("non-finite cost in action a1 of state s1"),
                  std::string::npos)
            << cost;
    }

    // A target outside the model and a state outside the model.
    const std::string target = model_error_of([] {
        sm::CtmdpBuilder b(2);
        b.add_action(0, {{7, 1.0}});
    });
    EXPECT_NE(target.find("action a0 of state s0 targets unknown state 7"),
              std::string::npos)
        << target;
    const std::string state = model_error_of([] {
        sm::CtmdpBuilder b(2);
        b.add_action(2, {{0, 1.0}});
    });
    EXPECT_NE(state.find("unknown state s2"), std::string::npos) << state;
}

TEST(CtmdpBuilder, SkippedStatesAreCaughtAtFreeze) {
    sm::CtmdpBuilder b(3);
    b.add_action(0, {{2, 1.0}});
    b.add_action(2, {{0, 1.0}});  // state 1 skipped
    const std::string error =
        model_error_of([&] { (void)std::move(b).freeze(); });
    EXPECT_NE(error.find("state s1 has no actions"), std::string::npos)
        << error;
}

TEST(FrozenModel, SolveFingerprintIsExactOnTheFlatArrays) {
    const sm::DispatchOptions opts;
    const auto nested = random_nested(11, 40);
    const auto a = freeze_nested(nested);
    const auto b = freeze_nested(nested);
    EXPECT_EQ(sm::solve_fingerprint(a, opts), sm::solve_fingerprint(b, opts));

    // Nudge one positive rate by a single ulp: a different model.
    NestedModel nudged = nested;
    bool done = false;
    for (auto& acts : nudged.states)
        for (auto& act : acts)
            for (auto& t : act.moves)
                if (!done && t.rate > 0.0) {
                    t.rate = std::nextafter(t.rate, 10.0);
                    done = true;
                }
    ASSERT_TRUE(done);
    const auto c = freeze_nested(nudged);
    EXPECT_NE(sm::solve_fingerprint(c, opts), sm::solve_fingerprint(a, opts));

    // The key is an 8-byte hash of the flat arrays and options, then the
    // 65-byte options block ('D' and eight 8-byte words): its size does
    // not grow with the model.
    const std::string key = sm::solve_fingerprint(a, opts);
    ASSERT_EQ(key.size(), 73u);
    EXPECT_EQ(key[8], 'D');
    const auto bigger = freeze_nested(random_nested(11, 80));
    ASSERT_GT(bigger.transition_count(), a.transition_count());
    EXPECT_EQ(sm::solve_fingerprint(bigger, opts).size(), key.size());
}

namespace {

/// Every figure1 subsystem as a CTMDP at the given per-flow cap — the
/// "preset subsystems" the banded-vs-dense pinning sweeps.
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

}  // namespace

TEST(PolicyIteration, BandedEvaluationMatchesDenseOnPresetSubsystems) {
    // The bordered-banded evaluation is a different elimination order, so
    // agreement is to solver tolerance, not bit for bit; gains, biases
    // and the selected policies must still coincide. Cap 3 puts the
    // 3-flow bus over the n >= 40 gate (64 states, bandwidth 16).
    for (const long cap : {3L, 4L}) {
        for (const auto& sub : figure1_subsystems(cap)) {
            const auto& model = sub.model();
            sm::PiOptions banded;
            banded.banded_evaluation = true;
            sm::PiOptions dense;
            dense.banded_evaluation = false;
            const auto rb = sm::policy_iteration(model, banded);
            const auto rd = sm::policy_iteration(model, dense);
            ASSERT_TRUE(rb.converged);
            ASSERT_TRUE(rd.converged);
            EXPECT_NEAR(rb.gain, rd.gain, 1e-8)
                << "states " << model.state_count();
            EXPECT_EQ(rb.policy.choices(), rd.policy.choices());
            ASSERT_EQ(rb.bias.size(), rd.bias.size());
            for (std::size_t s = 0; s < rb.bias.size(); ++s)
                EXPECT_NEAR(rb.bias[s], rd.bias[s], 1e-7);
        }
    }
}

TEST(SolverRegistry, SparseVsDensePathsAgreeOnPresetSubsystems) {
    // Registry-level pinning across every preset subsystem: the banded-PI
    // and (CSR) VI paths must agree with the LP on the optimal gain.
    sm::SolverRegistry registry;
    for (const auto& sub : figure1_subsystems(2)) {
        const auto& model = sub.model();
        sm::DispatchOptions lp;
        lp.choice = sm::SolverChoice::kLp;
        sm::DispatchOptions pi;
        pi.choice = sm::SolverChoice::kPolicyIteration;
        sm::DispatchOptions vi;
        vi.choice = sm::SolverChoice::kValueIteration;
        const auto rlp = registry.solve(model, lp);
        const auto rpi = registry.solve(model, pi);
        const auto rvi = registry.solve(model, vi);
        EXPECT_NEAR(rlp.gain, rpi.gain, 1e-6);
        EXPECT_NEAR(rlp.gain, rvi.gain, 1e-6);
    }
}
