#include "linalg/lu.hpp"

#include "util/contracts.hpp"

#include <cmath>
#include <limits>
#include <numeric>

namespace socbuf::linalg {

LuDecomposition::LuDecomposition(Matrix a, double pivot_tolerance)
    : lu_(std::move(a)) {
    SOCBUF_REQUIRE_MSG(lu_.square(), "LU requires a square matrix");
    const std::size_t n = lu_.rows();
    SOCBUF_REQUIRE_MSG(n > 0, "LU of an empty matrix");
    perm_.resize(n);
    std::iota(perm_.begin(), perm_.end(), std::size_t{0});
    min_pivot_ = std::numeric_limits<double>::infinity();

    for (std::size_t k = 0; k < n; ++k) {
        // Partial pivoting: pick the largest magnitude in column k.
        std::size_t pivot_row = k;
        double pivot_mag = std::fabs(lu_(k, k));
        for (std::size_t r = k + 1; r < n; ++r) {
            const double mag = std::fabs(lu_(r, k));
            if (mag > pivot_mag) {
                pivot_mag = mag;
                pivot_row = r;
            }
        }
        if (pivot_mag <= pivot_tolerance)
            throw util::NumericalError(
                "LU: matrix is singular to working precision (pivot " +
                std::to_string(pivot_mag) + " at column " +
                std::to_string(k) + ")");
        if (pivot_row != k) {
            for (std::size_t c = 0; c < n; ++c)
                std::swap(lu_(k, c), lu_(pivot_row, c));
            std::swap(perm_[k], perm_[pivot_row]);
        }
        min_pivot_ = std::min(min_pivot_, pivot_mag);
        const double inv_pivot = 1.0 / lu_(k, k);
        for (std::size_t r = k + 1; r < n; ++r) {
            const double factor = lu_(r, k) * inv_pivot;
            lu_(r, k) = factor;
            if (factor == 0.0) continue;
            for (std::size_t c = k + 1; c < n; ++c)
                lu_(r, c) -= factor * lu_(k, c);
        }
    }
}

Vector LuDecomposition::solve(const Vector& b) const {
    const std::size_t n = lu_.rows();
    SOCBUF_REQUIRE_MSG(b.size() == n, "solve: rhs size mismatch");
    Vector x(n);
    // Forward substitution with permuted rhs (L has unit diagonal).
    for (std::size_t r = 0; r < n; ++r) {
        double acc = b[perm_[r]];
        for (std::size_t c = 0; c < r; ++c) acc -= lu_(r, c) * x[c];
        x[r] = acc;
    }
    // Back substitution on U.
    for (std::size_t ri = n; ri-- > 0;) {
        double acc = x[ri];
        for (std::size_t c = ri + 1; c < n; ++c) acc -= lu_(ri, c) * x[c];
        x[ri] = acc / lu_(ri, ri);
    }
    return x;
}

Vector LuDecomposition::solve_transposed(const Vector& b) const {
    const std::size_t n = lu_.rows();
    SOCBUF_REQUIRE_MSG(b.size() == n, "solve_transposed: rhs size mismatch");
    // A^T x = b  <=>  U^T L^T P x = b.
    Vector y(n);
    // Forward substitution with U^T (lower triangular with diag of U).
    for (std::size_t r = 0; r < n; ++r) {
        double acc = b[r];
        for (std::size_t c = 0; c < r; ++c) acc -= lu_(c, r) * y[c];
        y[r] = acc / lu_(r, r);
    }
    // Back substitution with L^T (unit upper triangular).
    for (std::size_t ri = n; ri-- > 0;) {
        double acc = y[ri];
        for (std::size_t c = ri + 1; c < n; ++c) acc -= lu_(c, ri) * y[c];
        y[ri] = acc;
    }
    // Undo the permutation: x[perm[i]] = y[i].
    Vector x(n);
    for (std::size_t i = 0; i < n; ++i) x[perm_[i]] = y[i];
    return x;
}

Vector solve_linear_system(const Matrix& a, const Vector& b) {
    return LuDecomposition(a).solve(b);
}

double residual_inf(const Matrix& a, const Vector& x, const Vector& b) {
    const Vector ax = a.multiply(x);
    return max_abs_diff(ax, b);
}

}  // namespace socbuf::linalg
