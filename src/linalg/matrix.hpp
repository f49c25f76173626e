// Dense row-major matrix and free-function vector algebra. Sized for the
// problems socbuf solves (CTMC generators and policy-evaluation systems of a
// few thousand states); no expression templates, no views — plain,
// predictable code per the Core Guidelines' "make simple things simple".
#pragma once

#include <cstddef>
#include <vector>

namespace socbuf::linalg {

using Vector = std::vector<double>;

class Matrix {
public:
    Matrix() = default;

    /// rows x cols matrix, zero-initialized (or filled with `fill`).
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

    /// Build from nested initializer-style data; all rows must be equal
    /// length.
    static Matrix from_rows(const std::vector<Vector>& rows);

    [[nodiscard]] std::size_t rows() const { return rows_; }
    [[nodiscard]] std::size_t cols() const { return cols_; }
    [[nodiscard]] bool empty() const { return rows_ == 0 || cols_ == 0; }
    [[nodiscard]] bool square() const { return rows_ == cols_; }

    double& operator()(std::size_t r, std::size_t c) {
        return data_[r * cols_ + c];
    }
    double operator()(std::size_t r, std::size_t c) const {
        return data_[r * cols_ + c];
    }

    /// Checked element access.
    double& at(std::size_t r, std::size_t c);
    [[nodiscard]] double at(std::size_t r, std::size_t c) const;

    /// Raw storage (row-major), useful for tight solver loops.
    [[nodiscard]] const std::vector<double>& data() const { return data_; }
    std::vector<double>& data() { return data_; }

    [[nodiscard]] Matrix transposed() const;

    /// Matrix-vector product; x.size() must equal cols().
    [[nodiscard]] Vector multiply(const Vector& x) const;

    /// y = A^T x ; x.size() must equal rows().
    [[nodiscard]] Vector multiply_transposed(const Vector& x) const;

    /// Maximum absolute element.
    [[nodiscard]] double max_abs() const;

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

// ---- free vector helpers ---------------------------------------------------

/// s * a.
[[nodiscard]] Vector scale(const Vector& a, double s);

/// Maximum absolute entry; 0 for an empty vector.
[[nodiscard]] double norm_inf(const Vector& a);

/// Sum of entries.
[[nodiscard]] double sum(const Vector& a);

/// max_i |a_i - b_i| (sizes must match).
[[nodiscard]] double max_abs_diff(const Vector& a, const Vector& b);

/// Difference between the largest and smallest entry (span seminorm),
/// used by relative value iteration's stopping rule.
[[nodiscard]] double span(const Vector& a);

}  // namespace socbuf::linalg
