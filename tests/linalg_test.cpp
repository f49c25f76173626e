#include "linalg/banded.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "util/contracts.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

namespace sl = socbuf::linalg;

TEST(Matrix, ConstructionAndAccess) {
    sl::Matrix m(2, 3, 1.5);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
    m(0, 0) = -2.0;
    EXPECT_DOUBLE_EQ(m.at(0, 0), -2.0);
    EXPECT_THROW(m.at(2, 0), socbuf::util::ContractViolation);
}

TEST(Matrix, FromRowsValidatesShape) {
    const auto m = sl::Matrix::from_rows({{1.0, 2.0}, {3.0, 4.0}});
    EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
    EXPECT_THROW(sl::Matrix::from_rows({{1.0}, {1.0, 2.0}}),
                 socbuf::util::ContractViolation);
}

TEST(Matrix, IdentityMultiplyIsNoOp) {
    const auto id = sl::Matrix::identity(3);
    const sl::Vector x{1.0, -2.0, 0.5};
    EXPECT_EQ(id.multiply(x), x);
}

TEST(Matrix, MultiplyKnownValues) {
    const auto a = sl::Matrix::from_rows({{1.0, 2.0}, {3.0, 4.0}});
    const auto y = a.multiply(sl::Vector{1.0, 1.0});
    EXPECT_DOUBLE_EQ(y[0], 3.0);
    EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(Matrix, MultiplyTransposedMatchesExplicitTranspose) {
    const auto a =
        sl::Matrix::from_rows({{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}});
    const sl::Vector x{2.0, -1.0};
    const auto fast = a.multiply_transposed(x);
    const auto slow = a.transposed().multiply(x);
    ASSERT_EQ(fast.size(), slow.size());
    for (std::size_t i = 0; i < fast.size(); ++i)
        EXPECT_NEAR(fast[i], slow[i], 1e-14);
}

TEST(Matrix, MatrixMatrixProduct) {
    const auto a = sl::Matrix::from_rows({{1.0, 2.0}, {0.0, 1.0}});
    const auto b = sl::Matrix::from_rows({{3.0, 0.0}, {1.0, 1.0}});
    const auto c = a.multiply(b);
    EXPECT_DOUBLE_EQ(c(0, 0), 5.0);
    EXPECT_DOUBLE_EQ(c(0, 1), 2.0);
    EXPECT_DOUBLE_EQ(c(1, 0), 1.0);
    EXPECT_DOUBLE_EQ(c(1, 1), 1.0);
}

TEST(Matrix, NormsAndScaling) {
    const auto a = sl::Matrix::from_rows({{1.0, -2.0}, {3.0, 4.0}});
    EXPECT_DOUBLE_EQ(a.infinity_norm(), 7.0);
    EXPECT_DOUBLE_EQ(a.max_abs(), 4.0);
    EXPECT_DOUBLE_EQ(a.scaled(2.0)(1, 1), 8.0);
    EXPECT_DOUBLE_EQ(a.add(a)(0, 1), -4.0);
}

TEST(VectorOps, Arithmetic) {
    const sl::Vector a{1.0, 2.0};
    const sl::Vector b{3.0, -1.0};
    EXPECT_EQ(sl::add(a, b), (sl::Vector{4.0, 1.0}));
    EXPECT_EQ(sl::subtract(a, b), (sl::Vector{-2.0, 3.0}));
    EXPECT_EQ(sl::scale(a, 2.0), (sl::Vector{2.0, 4.0}));
    EXPECT_DOUBLE_EQ(sl::dot(a, b), 1.0);
    EXPECT_DOUBLE_EQ(sl::norm2({3.0, 4.0}), 5.0);
    EXPECT_DOUBLE_EQ(sl::norm_inf(b), 3.0);
    EXPECT_DOUBLE_EQ(sl::sum(a), 3.0);
    EXPECT_DOUBLE_EQ(sl::max_abs_diff(a, b), 3.0);
    EXPECT_DOUBLE_EQ(sl::span({1.0, 5.0, -2.0}), 7.0);
}

TEST(Lu, SolvesKnownSystem) {
    // x + y = 3; 2x - y = 0  =>  x = 1, y = 2.
    const auto a = sl::Matrix::from_rows({{1.0, 1.0}, {2.0, -1.0}});
    const auto x = sl::solve_linear_system(a, {3.0, 0.0});
    EXPECT_NEAR(x[0], 1.0, 1e-12);
    EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, DeterminantWithPivoting) {
    // Requires a row swap; det = -2.
    const auto a = sl::Matrix::from_rows({{0.0, 1.0}, {2.0, 0.0}});
    sl::LuDecomposition lu(a);
    EXPECT_NEAR(lu.determinant(), -2.0, 1e-12);
}

TEST(Lu, SingularMatrixThrows) {
    const auto a = sl::Matrix::from_rows({{1.0, 2.0}, {2.0, 4.0}});
    EXPECT_THROW(sl::LuDecomposition{a}, socbuf::util::NumericalError);
}

TEST(Lu, TransposedSolveMatchesExplicitTranspose) {
    const auto a = sl::Matrix::from_rows(
        {{4.0, 1.0, 0.0}, {1.0, 3.0, 1.0}, {0.0, 1.0, 2.0}});
    const sl::Vector b{1.0, -2.0, 0.5};
    sl::LuDecomposition lu(a);
    const auto x1 = lu.solve_transposed(b);
    const auto x2 = sl::LuDecomposition(a.transposed()).solve(b);
    for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x1[i], x2[i], 1e-12);
}

class LuPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(LuPropertyTest, RandomSystemsHaveTinyResiduals) {
    const int n = GetParam();
    std::mt19937_64 gen(12345u + static_cast<unsigned>(n));
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    sl::Matrix a(n, n);
    for (int r = 0; r < n; ++r) {
        for (int c = 0; c < n; ++c) a(r, c) = dist(gen);
        a(r, r) += static_cast<double>(n);  // diagonal dominance
    }
    sl::Vector b(n);
    for (int i = 0; i < n; ++i) b[i] = dist(gen);
    const auto x = sl::solve_linear_system(a, b);
    EXPECT_LT(sl::residual_inf(a, x, b), 1e-9);
    // Transposed solve: residual of A^T y = b.
    const auto y = sl::LuDecomposition(a).solve_transposed(b);
    EXPECT_LT(sl::residual_inf(a.transposed(), y, b), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 10, 25, 60, 120));

namespace {

/// Random banded diagonally-dominant system: entries in |c - r| <= bw,
/// deterministic per (n, bw).
sl::Matrix random_banded(int n, int bw, unsigned salt) {
    std::mt19937_64 gen(777u + salt);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    sl::Matrix a(n, n);
    for (int r = 0; r < n; ++r) {
        for (int c = std::max(0, r - bw); c <= std::min(n - 1, r + bw); ++c)
            a(r, c) = dist(gen);
        a(r, r) += static_cast<double>(n);
    }
    return a;
}

}  // namespace

TEST(Banded, BandwidthsOfDetectsBands) {
    const auto a = sl::Matrix::from_rows(
        {{1.0, 2.0, 0.0}, {0.0, 3.0, 4.0}, {5.0, 0.0, 6.0}});
    const auto bw = sl::bandwidths_of(a);
    EXPECT_EQ(bw.lower, 2u);  // a(2,0)
    EXPECT_EQ(bw.upper, 1u);  // a(0,1), a(1,2)
}

TEST(Banded, MatrixStorageRoundTrip) {
    sl::BandedMatrix b(4, 1, 1);
    b.at(0, 0) = 1.0;
    b.at(0, 1) = 2.0;
    b.at(2, 1) = -3.0;
    EXPECT_DOUBLE_EQ(b.get(0, 1), 2.0);
    EXPECT_DOUBLE_EQ(b.get(0, 2), 0.0);  // out of band reads as zero
    EXPECT_THROW(static_cast<void>(b.at(0, 2)),
                 socbuf::util::ContractViolation);
    const auto dense = b.to_dense();
    EXPECT_DOUBLE_EQ(dense(2, 1), -3.0);
    EXPECT_DOUBLE_EQ(dense(3, 3), 0.0);
}

TEST(Banded, SingularMatrixThrows) {
    sl::BandedMatrix b(2, 1, 1);
    b.at(0, 0) = 1.0;
    b.at(0, 1) = 2.0;
    b.at(1, 0) = 0.5;
    b.at(1, 1) = 1.0;  // row 1 = 0.5 * row 0: singular
    EXPECT_THROW(sl::BandedLu{b}, socbuf::util::NumericalError);
}

class BandedLuPropertyTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(BandedLuPropertyTest, SolveBitIdenticalToDenseLu) {
    // The headline contract: on banded input, the banded LU makes the
    // same pivot choices and performs the same arithmetic as the dense
    // factorization, so the solutions match bit for bit (EXPECT_EQ on
    // doubles, no tolerance).
    const auto [n, bw] = GetParam();
    const auto dense = random_banded(n, bw, static_cast<unsigned>(n * bw));
    sl::BandedMatrix banded(n, bw, bw);
    for (int r = 0; r < n; ++r)
        for (int c = std::max(0, r - bw); c <= std::min(n - 1, r + bw); ++c)
            banded.at(r, c) = dense(r, c);
    std::mt19937_64 gen(31u + static_cast<unsigned>(n));
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    sl::Vector b(n);
    for (int i = 0; i < n; ++i) b[i] = dist(gen);
    const auto x_banded = sl::solve_banded_system(banded, b);
    const auto x_dense = sl::solve_linear_system(dense, b);
    ASSERT_EQ(x_banded.size(), x_dense.size());
    for (int i = 0; i < n; ++i) EXPECT_EQ(x_banded[i], x_dense[i]);
    EXPECT_LT(sl::residual_inf(dense, x_banded, b), 1e-9);
}

TEST_P(BandedLuPropertyTest, PivotingSystemsStayBitIdentical) {
    // Force row interchanges: build a diagonally dominant system with
    // band bw - 1, then swap each adjacent row pair. The swapped matrix
    // is exactly as well conditioned but fits band bw, and every even
    // column's dominant entry now sits one row below the diagonal, so
    // partial pivoting must interchange at every even step.
    const auto [n, bw] = GetParam();
    if (bw == 0) return;  // band 0 leaves no room for the swapped rows
    const int inner = bw - 1;
    sl::Matrix dense(n, n);
    std::mt19937_64 gen(555u + static_cast<unsigned>(n));
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (int r = 0; r < n; ++r)
        for (int c = std::max(0, r - inner); c <= std::min(n - 1, r + inner);
             ++c)
            dense(r, c) = dist(gen);
    for (int r = 0; r < n; ++r) dense(r, r) += 10.0 * n;
    for (int r = 0; r + 1 < n; r += 2)
        for (int c = 0; c < n; ++c) std::swap(dense(r, c), dense(r + 1, c));
    sl::BandedMatrix banded(n, bw, bw);
    for (int r = 0; r < n; ++r)
        for (int c = std::max(0, r - bw); c <= std::min(n - 1, r + bw); ++c)
            banded.at(r, c) = dense(r, c);
    sl::Vector b(n);
    for (int i = 0; i < n; ++i) b[i] = dist(gen);
    const auto x_banded = sl::solve_banded_system(banded, b);
    const auto x_dense = sl::solve_linear_system(dense, b);
    for (int i = 0; i < n; ++i) EXPECT_EQ(x_banded[i], x_dense[i]);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndBands, BandedLuPropertyTest,
    ::testing::Values(std::pair<int, int>{1, 0}, std::pair<int, int>{4, 1},
                      std::pair<int, int>{10, 2}, std::pair<int, int>{25, 3},
                      std::pair<int, int>{60, 5},
                      std::pair<int, int>{120, 16}));
