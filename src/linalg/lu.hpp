// LU factorization with partial pivoting, the direct solver behind CTMC
// stationary analysis and policy evaluation.
#pragma once

#include "linalg/matrix.hpp"

#include <cstddef>
#include <vector>

namespace socbuf::linalg {

/// PA = LU factorization of a square matrix. Throws NumericalError if the
/// matrix is singular to working precision.
class LuDecomposition {
public:
    explicit LuDecomposition(Matrix a, double pivot_tolerance = 1e-13);

    /// Solve A x = b for x.
    [[nodiscard]] Vector solve(const Vector& b) const;

    /// Solve A^T x = b for x.
    [[nodiscard]] Vector solve_transposed(const Vector& b) const;

    /// Smallest absolute pivot encountered — a cheap conditioning signal.
    [[nodiscard]] double min_pivot() const { return min_pivot_; }

    [[nodiscard]] std::size_t size() const { return lu_.rows(); }

private:
    Matrix lu_;                      // packed L (unit diag) and U
    std::vector<std::size_t> perm_;  // row permutation
    double min_pivot_ = 0.0;
};

/// One-shot convenience: solve A x = b. Throws NumericalError when singular.
[[nodiscard]] Vector solve_linear_system(const Matrix& a, const Vector& b);

/// Residual max-norm ||A x - b||_inf, for verification.
[[nodiscard]] double residual_inf(const Matrix& a, const Vector& x,
                                  const Vector& b);

}  // namespace socbuf::linalg
