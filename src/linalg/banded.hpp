// Banded storage and banded LU with partial pivoting (LAPACK gbtrf-style).
//
// Subsystem policy-evaluation systems are banded: transitions move one
// flow's occupancy by one, so |target - state| never exceeds the packing
// stride. A banded factorization costs O(n * kl * (kl + ku)) instead of
// the dense O(n^3) — the structural win behind the sparse PI path.
//
// Bit-identity contract: on a matrix whose entries outside the declared
// band are exact zeros, BandedLu performs the *same pivot choices and the
// same arithmetic* as the dense LuDecomposition — partial pivoting only
// ever finds candidates within kl rows of the diagonal (everything below
// is an exact zero that can never win the strictly-greater magnitude
// test), and the dense elimination's updates outside the band multiply
// exact zeros (no-ops). The factorization keeps multipliers in the slot
// where they were computed and applies row interchanges to the right-hand
// side lazily during solve (the gbtrf/gbtrs convention), which applies
// the identical multiplier/operand products in the identical order as the
// dense forward/back substitution. linalg_test pins solve() bit-identical
// to the dense path on random banded systems.
#pragma once

#include "linalg/matrix.hpp"

#include <cstddef>
#include <vector>

namespace socbuf::linalg {

/// An n x n matrix with entries confined to c in [r - lower, r + upper].
/// Writes outside the band throw; reads outside return 0.
class BandedMatrix {
public:
    BandedMatrix(std::size_t n, std::size_t lower, std::size_t upper);

    [[nodiscard]] std::size_t size() const { return n_; }
    [[nodiscard]] std::size_t lower() const { return lower_; }
    [[nodiscard]] std::size_t upper() const { return upper_; }

    [[nodiscard]] bool in_band(std::size_t r, std::size_t c) const {
        return r < n_ && c < n_ && c + lower_ >= r && c <= r + upper_;
    }

    /// Checked in-band element reference.
    [[nodiscard]] double& at(std::size_t r, std::size_t c);
    /// Element value; exact 0.0 outside the band.
    [[nodiscard]] double get(std::size_t r, std::size_t c) const;

    /// Materialize to dense (tests / diagnostics).
    [[nodiscard]] Matrix to_dense() const;

private:
    std::size_t n_ = 0;
    std::size_t lower_ = 0;
    std::size_t upper_ = 0;
    std::size_t width_ = 0;       // lower_ + upper_ + 1
    std::vector<double> band_;    // band_[r * width_ + (c - r + lower_)]
};

/// PA = LU of a banded matrix; partial pivoting widens U's band to
/// lower + upper (extra fill rows are part of the storage). Throws
/// NumericalError when singular to working precision, exactly like the
/// dense LuDecomposition.
class BandedLu {
public:
    explicit BandedLu(const BandedMatrix& a, double pivot_tolerance = 1e-13);

    /// Solve A x = b; bit-identical to LuDecomposition::solve on the same
    /// (banded) matrix.
    [[nodiscard]] Vector solve(const Vector& b) const;

    [[nodiscard]] double min_pivot() const { return min_pivot_; }
    [[nodiscard]] std::size_t size() const { return n_; }

private:
    [[nodiscard]] double& fac(std::size_t r, std::size_t c) {
        return band_[r * width_ + (c + lower_ - r)];
    }
    [[nodiscard]] double fac(std::size_t r, std::size_t c) const {
        return band_[r * width_ + (c + lower_ - r)];
    }

    std::size_t n_ = 0;
    std::size_t lower_ = 0;
    std::size_t upper_ = 0;   // effective upper band of U: lower + upper
    std::size_t width_ = 0;   // 2 * lower_ + upper(original) + 1
    std::vector<double> band_;
    std::vector<std::size_t> ipiv_;  // row interchanged with k at step k
    double min_pivot_ = 0.0;
};

/// One-shot convenience: solve A x = b for banded A.
[[nodiscard]] Vector solve_banded_system(const BandedMatrix& a,
                                         const Vector& b);

}  // namespace socbuf::linalg
