#include "linalg/matrix.hpp"

#include "util/contracts.hpp"

#include <algorithm>
#include <cmath>

namespace socbuf::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::from_rows(const std::vector<Vector>& rows) {
    SOCBUF_REQUIRE_MSG(!rows.empty(), "from_rows needs at least one row");
    const std::size_t cols = rows.front().size();
    Matrix m(rows.size(), cols);
    for (std::size_t r = 0; r < rows.size(); ++r) {
        SOCBUF_REQUIRE_MSG(rows[r].size() == cols,
                           "all rows must have equal length");
        for (std::size_t c = 0; c < cols; ++c) m(r, c) = rows[r][c];
    }
    return m;
}

double& Matrix::at(std::size_t r, std::size_t c) {
    SOCBUF_REQUIRE_MSG(r < rows_ && c < cols_, "matrix index out of range");
    return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
    SOCBUF_REQUIRE_MSG(r < rows_ && c < cols_, "matrix index out of range");
    return (*this)(r, c);
}

Matrix Matrix::transposed() const {
    Matrix t(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
    return t;
}

Vector Matrix::multiply(const Vector& x) const {
    SOCBUF_REQUIRE_MSG(x.size() == cols_, "A*x size mismatch");
    Vector y(rows_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r) {
        double acc = 0.0;
        const double* row = data_.data() + r * cols_;
        for (std::size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
        y[r] = acc;
    }
    return y;
}

Vector Matrix::multiply_transposed(const Vector& x) const {
    SOCBUF_REQUIRE_MSG(x.size() == rows_, "A^T*x size mismatch");
    Vector y(cols_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r) {
        const double xr = x[r];
        if (xr == 0.0) continue;
        const double* row = data_.data() + r * cols_;
        for (std::size_t c = 0; c < cols_; ++c) y[c] += row[c] * xr;
    }
    return y;
}

double Matrix::max_abs() const {
    double best = 0.0;
    for (double v : data_) best = std::max(best, std::fabs(v));
    return best;
}

Vector scale(const Vector& a, double s) {
    Vector out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * s;
    return out;
}

double norm_inf(const Vector& a) {
    double best = 0.0;
    for (double v : a) best = std::max(best, std::fabs(v));
    return best;
}

double sum(const Vector& a) {
    double acc = 0.0;
    for (double v : a) acc += v;
    return acc;
}

double max_abs_diff(const Vector& a, const Vector& b) {
    SOCBUF_REQUIRE(a.size() == b.size());
    double best = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        best = std::max(best, std::fabs(a[i] - b[i]));
    return best;
}

double span(const Vector& a) {
    if (a.empty()) return 0.0;
    auto [lo, hi] = std::minmax_element(a.begin(), a.end());
    return *hi - *lo;
}

}  // namespace socbuf::linalg
