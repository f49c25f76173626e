#include "linalg/banded.hpp"

#include "util/contracts.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

namespace socbuf::linalg {

BandedMatrix::BandedMatrix(std::size_t n, std::size_t lower,
                           std::size_t upper)
    : n_(n),
      lower_(lower),
      upper_(upper),
      width_(lower + upper + 1),
      band_(n * width_, 0.0) {
    SOCBUF_REQUIRE_MSG(n > 0, "empty banded matrix");
}

double& BandedMatrix::at(std::size_t r, std::size_t c) {
    SOCBUF_REQUIRE_MSG(in_band(r, c), "banded element outside the band");
    return band_[r * width_ + (c + lower_ - r)];
}

double BandedMatrix::get(std::size_t r, std::size_t c) const {
    SOCBUF_REQUIRE_MSG(r < n_ && c < n_, "banded index out of range");
    if (!in_band(r, c)) return 0.0;
    return band_[r * width_ + (c + lower_ - r)];
}

Matrix BandedMatrix::to_dense() const {
    Matrix out(n_, n_);
    for (std::size_t r = 0; r < n_; ++r) {
        const std::size_t lo = r >= lower_ ? r - lower_ : 0;
        const std::size_t hi = std::min(n_ - 1, r + upper_);
        for (std::size_t c = lo; c <= hi; ++c) out(r, c) = get(r, c);
    }
    return out;
}

BandedLu::BandedLu(const BandedMatrix& a, double pivot_tolerance)
    : n_(a.size()),
      lower_(a.lower()),
      // Partial pivoting can push U's band out to lower + upper; the
      // factor stores that widened upper band (gbtrf's fill rows).
      upper_(std::min(a.size() - 1, a.lower() + a.upper())),
      width_(lower_ + upper_ + 1),
      band_(a.size() * width_, 0.0),
      ipiv_(a.size(), 0) {
    for (std::size_t r = 0; r < n_; ++r) {
        const std::size_t lo = r >= lower_ ? r - lower_ : 0;
        const std::size_t hi = std::min(n_ - 1, r + a.upper());
        for (std::size_t c = lo; c <= hi; ++c) fac(r, c) = a.get(r, c);
    }
    min_pivot_ = std::numeric_limits<double>::infinity();

    // Mirror of the dense LuDecomposition loop restricted to the band:
    // column k's candidates below row k + lower are exact zeros in a
    // banded matrix and can never win the strictly-greater test, so the
    // restricted pivot search picks the dense choice; the restricted
    // update range skips only multiply-by-exact-zero no-ops. Multipliers
    // stay in the slot where they were computed (rows swap only over the
    // active columns), and solve() applies ipiv_ lazily.
    for (std::size_t k = 0; k < n_; ++k) {
        const std::size_t rmax = std::min(n_ - 1, k + lower_);
        const std::size_t cmax = std::min(n_ - 1, k + upper_);
        std::size_t pivot_row = k;
        double pivot_mag = std::fabs(fac(k, k));
        for (std::size_t r = k + 1; r <= rmax; ++r) {
            const double mag = std::fabs(fac(r, k));
            if (mag > pivot_mag) {
                pivot_mag = mag;
                pivot_row = r;
            }
        }
        if (pivot_mag <= pivot_tolerance)
            throw util::NumericalError(
                "banded LU: matrix is singular to working precision "
                "(pivot " +
                std::to_string(pivot_mag) + " at column " +
                std::to_string(k) + ")");
        ipiv_[k] = pivot_row;
        if (pivot_row != k)
            for (std::size_t c = k; c <= cmax; ++c)
                std::swap(fac(k, c), fac(pivot_row, c));
        min_pivot_ = std::min(min_pivot_, pivot_mag);
        const double inv_pivot = 1.0 / fac(k, k);
        for (std::size_t r = k + 1; r <= rmax; ++r) {
            const double factor = fac(r, k) * inv_pivot;
            fac(r, k) = factor;
            if (factor == 0.0) continue;
            for (std::size_t c = k + 1; c <= cmax; ++c)
                fac(r, c) -= factor * fac(k, c);
        }
    }
}

Vector BandedLu::solve(const Vector& b) const {
    SOCBUF_REQUIRE_MSG(b.size() == n_, "solve: rhs size mismatch");
    Vector x = b;
    // Forward substitution with interleaved interchanges (gbtrs): each
    // subtraction uses the same multiplier and the same fully-eliminated
    // operand, in the same ascending-step order, as the dense forward
    // substitution over the pre-permuted rhs.
    for (std::size_t k = 0; k < n_; ++k) {
        if (ipiv_[k] != k) std::swap(x[k], x[ipiv_[k]]);
        const double xk = x[k];
        const std::size_t rmax = std::min(n_ - 1, k + lower_);
        for (std::size_t r = k + 1; r <= rmax; ++r)
            x[r] -= fac(r, k) * xk;
    }
    // Back substitution on the (widened-band) U.
    for (std::size_t ri = n_; ri-- > 0;) {
        double acc = x[ri];
        const std::size_t cmax = std::min(n_ - 1, ri + upper_);
        for (std::size_t c = ri + 1; c <= cmax; ++c)
            acc -= fac(ri, c) * x[c];
        x[ri] = acc / fac(ri, ri);
    }
    return x;
}

Vector solve_banded_system(const BandedMatrix& a, const Vector& b) {
    return BandedLu(a).solve(b);
}

}  // namespace socbuf::linalg
