#include "lp/problem.hpp"
#include "lp/simplex.hpp"
#include "util/contracts.hpp"

#include <gtest/gtest.h>

#include <random>

namespace slp = socbuf::lp;

namespace {

/// max 3x + 2y s.t. x + y <= 4, x + 3y <= 6  => x=4, y=0, obj=12.
slp::LinearProgram textbook_max() {
    slp::LinearProgram p;
    p.set_sense(slp::Sense::kMaximize);
    const auto x = p.add_variable(3.0, "x");
    const auto y = p.add_variable(2.0, "y");
    p.add_constraint({{{x, 1.0}, {y, 1.0}}, slp::Relation::kLessEqual, 4.0,
                      "c1"});
    p.add_constraint({{{x, 1.0}, {y, 3.0}}, slp::Relation::kLessEqual, 6.0,
                      "c2"});
    return p;
}

}  // namespace

TEST(Problem, BuilderBasics) {
    slp::LinearProgram p;
    const auto x = p.add_variable(1.0, "cost_x");
    EXPECT_EQ(p.variable_count(), 1u);
    EXPECT_EQ(p.variable_name(x), "cost_x");
    EXPECT_DOUBLE_EQ(p.objective_coeff(x), 1.0);
    p.set_objective_coeff(x, -2.0);
    EXPECT_DOUBLE_EQ(p.objective_coeff(x), -2.0);
}

TEST(Problem, DuplicateTermsAreMerged) {
    slp::LinearProgram p;
    const auto x = p.add_variable(1.0);
    const auto c =
        p.add_constraint({{{x, 1.0}, {x, 2.0}}, slp::Relation::kEqual, 3.0, ""});
    ASSERT_EQ(p.constraint(c).terms.size(), 1u);
    EXPECT_DOUBLE_EQ(p.constraint(c).terms[0].second, 3.0);
}

TEST(Problem, UnknownVariableRejected) {
    slp::LinearProgram p;
    p.add_variable(1.0);
    EXPECT_THROW(
        p.add_constraint({{{7, 1.0}}, slp::Relation::kEqual, 0.0, ""}),
        socbuf::util::ContractViolation);
}

TEST(Problem, MaxViolationMeasuresAllRelations) {
    slp::LinearProgram p;
    const auto x = p.add_variable(0.0);
    p.add_constraint({{{x, 1.0}}, slp::Relation::kLessEqual, 1.0, ""});
    p.add_constraint({{{x, 1.0}}, slp::Relation::kGreaterEqual, 0.5, ""});
    EXPECT_DOUBLE_EQ(p.max_violation({2.0}), 1.0);   // <= violated by 1
    EXPECT_DOUBLE_EQ(p.max_violation({0.0}), 0.5);   // >= violated by 0.5
    EXPECT_DOUBLE_EQ(p.max_violation({0.75}), 0.0);  // feasible
}

TEST(Simplex, SolvesTextbookMaximization) {
    const auto sol = slp::solve(textbook_max());
    ASSERT_EQ(sol.status, slp::SolveStatus::kOptimal);
    EXPECT_NEAR(sol.objective, 12.0, 1e-9);
    EXPECT_NEAR(sol.x[0], 4.0, 1e-9);
    EXPECT_NEAR(sol.x[1], 0.0, 1e-9);
    EXPECT_LT(sol.max_violation, 1e-9);
}

TEST(Simplex, SolvesMinimizationWithEqualities) {
    // min x + 2y s.t. x + y = 1, x <= 0.4  => x=0.4, y=0.6, obj=1.6.
    slp::LinearProgram p;
    const auto x = p.add_variable(1.0);
    const auto y = p.add_variable(2.0);
    p.add_constraint({{{x, 1.0}, {y, 1.0}}, slp::Relation::kEqual, 1.0, ""});
    p.add_constraint({{{x, 1.0}}, slp::Relation::kLessEqual, 0.4, ""});
    const auto sol = slp::solve(p);
    ASSERT_EQ(sol.status, slp::SolveStatus::kOptimal);
    EXPECT_NEAR(sol.objective, 1.6, 1e-9);
    EXPECT_NEAR(sol.x[0], 0.4, 1e-9);
    EXPECT_NEAR(sol.x[1], 0.6, 1e-9);
}

TEST(Simplex, DetectsInfeasibility) {
    slp::LinearProgram p;
    const auto x = p.add_variable(1.0);
    p.add_constraint({{{x, 1.0}}, slp::Relation::kLessEqual, 1.0, ""});
    p.add_constraint({{{x, 1.0}}, slp::Relation::kGreaterEqual, 2.0, ""});
    EXPECT_EQ(slp::solve(p).status, slp::SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnboundedness) {
    slp::LinearProgram p;
    p.set_sense(slp::Sense::kMaximize);
    const auto x = p.add_variable(1.0);
    p.add_constraint({{{x, -1.0}}, slp::Relation::kLessEqual, 0.0, ""});
    EXPECT_EQ(slp::solve(p).status, slp::SolveStatus::kUnbounded);
}

TEST(Simplex, HandlesNegativeRhsByRowFlip) {
    // -x <= -2  <=>  x >= 2; min x => x = 2.
    slp::LinearProgram p;
    const auto x = p.add_variable(1.0);
    p.add_constraint({{{x, -1.0}}, slp::Relation::kLessEqual, -2.0, ""});
    const auto sol = slp::solve(p);
    ASSERT_EQ(sol.status, slp::SolveStatus::kOptimal);
    EXPECT_NEAR(sol.x[0], 2.0, 1e-9);
}

TEST(Simplex, RedundantEqualitiesAreTolerated) {
    // The same equality three times must not break phase 1/2.
    slp::LinearProgram p;
    const auto x = p.add_variable(1.0);
    const auto y = p.add_variable(1.0);
    for (int i = 0; i < 3; ++i)
        p.add_constraint({{{x, 1.0}, {y, 1.0}}, slp::Relation::kEqual, 2.0, ""});
    const auto sol = slp::solve(p);
    ASSERT_EQ(sol.status, slp::SolveStatus::kOptimal);
    EXPECT_NEAR(sol.objective, 2.0, 1e-9);
    EXPECT_LT(sol.max_violation, 1e-9);
}

TEST(Simplex, DegenerateProblemTerminates) {
    // Klee-Minty-flavoured degeneracy: many ties in the ratio test.
    slp::LinearProgram p;
    p.set_sense(slp::Sense::kMaximize);
    const auto x = p.add_variable(1.0);
    const auto y = p.add_variable(1.0);
    const auto z = p.add_variable(1.0);
    p.add_constraint({{{x, 1.0}}, slp::Relation::kLessEqual, 0.0, ""});
    p.add_constraint({{{x, 1.0}, {y, 1.0}}, slp::Relation::kLessEqual, 0.0, ""});
    p.add_constraint(
        {{{x, 1.0}, {y, 1.0}, {z, 1.0}}, slp::Relation::kLessEqual, 1.0, ""});
    const auto sol = slp::solve(p);
    ASSERT_EQ(sol.status, slp::SolveStatus::kOptimal);
    EXPECT_NEAR(sol.objective, 1.0, 1e-9);
}

TEST(Simplex, EqualityOnlyProblemNeedsNoSlacks) {
    slp::LinearProgram p;
    const auto x = p.add_variable(2.0);
    const auto y = p.add_variable(1.0);
    p.add_constraint({{{x, 1.0}, {y, 1.0}}, slp::Relation::kEqual, 5.0, ""});
    const auto sol = slp::solve(p);
    ASSERT_EQ(sol.status, slp::SolveStatus::kOptimal);
    EXPECT_NEAR(sol.objective, 5.0, 1e-9);  // all mass on y
    EXPECT_NEAR(sol.x[1], 5.0, 1e-9);
}

TEST(Simplex, DenseConstraintHelper) {
    slp::LinearProgram p;
    p.add_variable(1.0);
    p.add_variable(1.0);
    p.add_dense_constraint({1.0, 1.0}, slp::Relation::kGreaterEqual, 2.0);
    const auto sol = slp::solve(p);
    ASSERT_EQ(sol.status, slp::SolveStatus::kOptimal);
    EXPECT_NEAR(sol.objective, 2.0, 1e-9);
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

    // Build around a known interior point x* > 0.
    std::vector<double> xstar(n);
    for (auto& v : xstar) v = pos(gen);

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
        c.relation = slp::Relation::kLessEqual;
        c.rhs = lhs + pos(gen);  // strictly feasible at x*
        p.add_constraint(std::move(c));
    }
    const auto sol = slp::solve(p);
    ASSERT_EQ(sol.status, slp::SolveStatus::kOptimal) << "seed "
                                                      << GetParam();
    EXPECT_LT(sol.max_violation, 1e-7);
    // Minimization with positive costs: optimum cannot exceed the value at
    // the known feasible point x*.
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
                          slp::Relation::kEqual,
                          0.0,
                          ""});
    }
    slp::Constraint norm;
    norm.relation = slp::Relation::kEqual;
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
    p.add_constraint({{{x, 1.0}, {y, 1.0}}, slp::Relation::kEqual, 1.0, ""});
    const auto sol = slp::solve(p);
    ASSERT_EQ(sol.status, slp::SolveStatus::kOptimal);
    EXPECT_NEAR(sol.x[0], 1.0, 1e-8);
    EXPECT_NEAR(sol.objective, 1.0, 1e-8);
}
