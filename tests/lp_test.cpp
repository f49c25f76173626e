#include "lp/problem.hpp"
#include "lp/simplex.hpp"
#include "util/contracts.hpp"

#include <gtest/gtest.h>

#include <random>

namespace slp = socbuf::lp;

namespace {

/// max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, written as
/// min -3x - 2y s.t. x + y + s1 = 4, x + 3y + s2 = 6  => x=4, y=0, obj=-12.
slp::LinearProgram textbook_max() {
    slp::LinearProgram p;
    const auto x = p.add_variable(-3.0);
    const auto y = p.add_variable(-2.0);
    const auto s1 = p.add_variable();
    const auto s2 = p.add_variable();
    p.add_constraint({{{x, 1.0}, {y, 1.0}, {s1, 1.0}}, 4.0});
    p.add_constraint({{{x, 1.0}, {y, 3.0}, {s2, 1.0}}, 6.0});
    return p;
}

}  // namespace

TEST(Problem, BuilderBasics) {
    slp::LinearProgram p;
    const auto x = p.add_variable(1.0);
    const auto slack = p.add_variable();
    EXPECT_EQ(p.variable_count(), 2u);
    EXPECT_DOUBLE_EQ(p.objective_coeff(x), 1.0);
    EXPECT_DOUBLE_EQ(p.objective_coeff(slack), 0.0);
    EXPECT_THROW((void)p.objective_coeff(2), socbuf::util::ContractViolation);
}

TEST(Problem, DuplicateTermsAreMerged) {
    slp::LinearProgram p;
    const auto x = p.add_variable(1.0);
    const auto c = p.add_constraint({{{x, 1.0}, {x, 2.0}}, 3.0});
    ASSERT_EQ(p.constraint(c).terms.size(), 1u);
    EXPECT_DOUBLE_EQ(p.constraint(c).terms[0].second, 3.0);
}

TEST(Problem, UnknownVariableRejected) {
    slp::LinearProgram p;
    p.add_variable(1.0);
    EXPECT_THROW(p.add_constraint({{{7, 1.0}}, 0.0}),
                 socbuf::util::ContractViolation);
}

TEST(Problem, MaxViolationMeasuresRowsAndDomain) {
    // x + s = 1 over x, s >= 0.
    slp::LinearProgram p;
    const auto x = p.add_variable(0.0);
    const auto s = p.add_variable(0.0);
    p.add_constraint({{{x, 1.0}, {s, 1.0}}, 1.0});
    EXPECT_DOUBLE_EQ(p.max_violation({2.0, 0.0}), 1.0);   // row over by 1
    EXPECT_DOUBLE_EQ(p.max_violation({0.25, 0.25}), 0.5);  // row under
    EXPECT_DOUBLE_EQ(p.max_violation({1.5, -0.5}), 0.5);   // s < 0
    EXPECT_DOUBLE_EQ(p.max_violation({0.75, 0.25}), 0.0);  // feasible
}

TEST(Simplex, SolvesTextbookMaximizationWithSlacks) {
    const auto sol = slp::solve(textbook_max());
    ASSERT_EQ(sol.status, slp::SolveStatus::kOptimal);
    EXPECT_NEAR(sol.objective, -12.0, 1e-9);
    EXPECT_NEAR(sol.x[0], 4.0, 1e-9);
    EXPECT_NEAR(sol.x[1], 0.0, 1e-9);
    EXPECT_NEAR(sol.x[3], 2.0, 1e-9);  // c2's slack: 6 - 4
    EXPECT_LT(sol.max_violation, 1e-9);
}

TEST(Simplex, SolvesMinimizationWithASlackRow) {
    // min x + 2y s.t. x + y = 1, x + s = 0.4  => x=0.4, y=0.6, obj=1.6.
    slp::LinearProgram p;
    const auto x = p.add_variable(1.0);
    const auto y = p.add_variable(2.0);
    const auto s = p.add_variable();
    p.add_constraint({{{x, 1.0}, {y, 1.0}}, 1.0});
    p.add_constraint({{{x, 1.0}, {s, 1.0}}, 0.4});
    const auto sol = slp::solve(p);
    ASSERT_EQ(sol.status, slp::SolveStatus::kOptimal);
    EXPECT_NEAR(sol.objective, 1.6, 1e-9);
    EXPECT_NEAR(sol.x[0], 0.4, 1e-9);
    EXPECT_NEAR(sol.x[1], 0.6, 1e-9);
}

TEST(Simplex, DetectsInfeasibility) {
    // x + s1 = 1 (x <= 1) and x - s2 = 2 (x >= 2).
    slp::LinearProgram p;
    const auto x = p.add_variable(1.0);
    const auto s1 = p.add_variable();
    const auto s2 = p.add_variable();
    p.add_constraint({{{x, 1.0}, {s1, 1.0}}, 1.0});
    p.add_constraint({{{x, 1.0}, {s2, -1.0}}, 2.0});
    EXPECT_EQ(slp::solve(p).status, slp::SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnboundedness) {
    // min -x s.t. -x + s = 0: x = s can grow without limit.
    slp::LinearProgram p;
    const auto x = p.add_variable(-1.0);
    const auto s = p.add_variable();
    p.add_constraint({{{x, -1.0}, {s, 1.0}}, 0.0});
    EXPECT_EQ(slp::solve(p).status, slp::SolveStatus::kUnbounded);
}

TEST(Simplex, HandlesNegativeRhsByRowFlip) {
    // -x + s = -2  <=>  x = 2 + s >= 2; min x => x = 2.
    slp::LinearProgram p;
    const auto x = p.add_variable(1.0);
    const auto s = p.add_variable();
    p.add_constraint({{{x, -1.0}, {s, 1.0}}, -2.0});
    const auto sol = slp::solve(p);
    ASSERT_EQ(sol.status, slp::SolveStatus::kOptimal);
    EXPECT_NEAR(sol.x[0], 2.0, 1e-9);
    EXPECT_NEAR(sol.x[1], 0.0, 1e-9);
}

TEST(Simplex, RedundantEqualitiesAreTolerated) {
    // The same equality three times must not break phase 1/2.
    slp::LinearProgram p;
    const auto x = p.add_variable(1.0);
    const auto y = p.add_variable(1.0);
    for (int i = 0; i < 3; ++i)
        p.add_constraint({{{x, 1.0}, {y, 1.0}}, 2.0});
    const auto sol = slp::solve(p);
    ASSERT_EQ(sol.status, slp::SolveStatus::kOptimal);
    EXPECT_NEAR(sol.objective, 2.0, 1e-9);
    EXPECT_LT(sol.max_violation, 1e-9);
}

TEST(Simplex, DegenerateProblemTerminates) {
    // Klee-Minty-flavoured degeneracy, many ties in the ratio test:
    // max x + y + z s.t. x <= 0, x + y <= 0, x + y + z <= 1, as
    // min -(x + y + z) over three slack rows.
    slp::LinearProgram p;
    const auto x = p.add_variable(-1.0);
    const auto y = p.add_variable(-1.0);
    const auto z = p.add_variable(-1.0);
    const auto s1 = p.add_variable();
    const auto s2 = p.add_variable();
    const auto s3 = p.add_variable();
    p.add_constraint({{{x, 1.0}, {s1, 1.0}}, 0.0});
    p.add_constraint({{{x, 1.0}, {y, 1.0}, {s2, 1.0}}, 0.0});
    p.add_constraint({{{x, 1.0}, {y, 1.0}, {z, 1.0}, {s3, 1.0}}, 1.0});
    const auto sol = slp::solve(p);
    ASSERT_EQ(sol.status, slp::SolveStatus::kOptimal);
    EXPECT_NEAR(sol.objective, -1.0, 1e-9);
}

TEST(Simplex, PutsAllMassOnTheCheaperVariable) {
    slp::LinearProgram p;
    const auto x = p.add_variable(2.0);
    const auto y = p.add_variable(1.0);
    p.add_constraint({{{x, 1.0}, {y, 1.0}}, 5.0});
    const auto sol = slp::solve(p);
    ASSERT_EQ(sol.status, slp::SolveStatus::kOptimal);
    EXPECT_NEAR(sol.objective, 5.0, 1e-9);  // all mass on y
    EXPECT_NEAR(sol.x[1], 5.0, 1e-9);
}

TEST(Simplex, RejectsEmptyProgram) {
    slp::LinearProgram p;
    EXPECT_THROW(slp::solve(p), socbuf::util::ContractViolation);
}

// Property sweep: random feasible-by-construction LPs must come back
// optimal, feasible and no better than a known feasible point.
class SimplexPropertyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(SimplexPropertyTest, RandomFeasibleProblemsSolveCleanly) {
    std::mt19937_64 gen(GetParam());
    std::uniform_real_distribution<double> coeff(-2.0, 2.0);
    std::uniform_real_distribution<double> pos(0.1, 2.0);
    const std::size_t n = 4 + GetParam() % 5;
    const std::size_t m = 3 + GetParam() % 4;

    // Build around a known interior point x* > 0 of the structural
    // variables.
    std::vector<double> xstar(n);
    for (auto& v : xstar) v = pos(gen);

    // Each row is a <= row made an equality by its own slack variable,
    // whose value at x* extends x* to a strictly positive feasible point.
    slp::LinearProgram p;
    for (std::size_t j = 0; j < n; ++j) p.add_variable(pos(gen));
    for (std::size_t i = 0; i < m; ++i) {
        slp::Constraint c;
        double lhs = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
            const double a = coeff(gen);
            c.terms.emplace_back(j, a);
            lhs += a * xstar[j];
        }
        const double slack_at_xstar = pos(gen);
        c.terms.emplace_back(p.add_variable(), 1.0);
        c.rhs = lhs + slack_at_xstar;
        xstar.push_back(slack_at_xstar);
        p.add_constraint(std::move(c));
    }
    const auto sol = slp::solve(p);
    ASSERT_EQ(sol.status, slp::SolveStatus::kOptimal) << "seed "
                                                      << GetParam();
    EXPECT_LT(sol.max_violation, 1e-7);
    // The optimum cannot exceed the value at the known feasible point x*.
    EXPECT_LE(sol.objective, p.objective_value(xstar) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexPropertyTest,
                         ::testing::Range(1u, 21u));

TEST(Simplex, TotallyDegenerateBalanceSystemTerminates) {
    // Regression: occupation-measure LPs have every rhs equal to zero
    // except one normalization row. Without anti-degeneracy measures the
    // simplex wanders for millions of iterations on these (observed on the
    // paper's bus-b subsystem); the Wolfe rhs perturbation must keep the
    // pivot count tiny. This is a miniature of that structure: a ring CTMC
    // balance system plus normalization.
    slp::LinearProgram p;
    const int n = 24;
    std::vector<std::size_t> x;
    for (int i = 0; i < n; ++i)
        x.push_back(p.add_variable(i % 3 == 0 ? 1.0 : 0.2));
    // Ring balance: rate out of i equals rate in from i-1 (all rhs zero).
    for (int i = 1; i < n; ++i) {
        p.add_constraint({{{x[static_cast<std::size_t>(i)], 1.0},
                           {x[static_cast<std::size_t>((i + n - 1) % n)],
                            -1.0}},
                          0.0});
    }
    slp::Constraint norm;
    norm.rhs = 1.0;
    for (int i = 0; i < n; ++i)
        norm.terms.emplace_back(x[static_cast<std::size_t>(i)], 1.0);
    p.add_constraint(std::move(norm));

    const auto sol = slp::solve(p);
    ASSERT_EQ(sol.status, slp::SolveStatus::kOptimal);
    EXPECT_LT(sol.iterations, 2000u);
    EXPECT_LT(sol.max_violation, 1e-6);
    // Ring balance forces the uniform distribution; objective is its cost.
    double expected = 0.0;
    for (int i = 0; i < n; ++i) expected += (i % 3 == 0 ? 1.0 : 0.2) / n;
    EXPECT_NEAR(sol.objective, expected, 1e-6);
}

TEST(Simplex, PerturbationErrorStaysBelowFeasibilityTolerance) {
    // The rhs perturbation must not visibly move solutions.
    slp::LinearProgram p;
    const auto x = p.add_variable(1.0);
    const auto y = p.add_variable(2.0);
    p.add_constraint({{{x, 1.0}, {y, 1.0}}, 1.0});
    const auto sol = slp::solve(p);
    ASSERT_EQ(sol.status, slp::SolveStatus::kOptimal);
    EXPECT_NEAR(sol.x[0], 1.0, 1e-8);
    EXPECT_NEAR(sol.objective, 1.0, 1e-8);
}
