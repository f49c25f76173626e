// Stationary distributions of finite CTMCs: a direct solver (LU on the
// normalized balance system), a power-iteration fallback for
// cross-checking, and the gather-form Gauss–Seidel sweep the CTMDP
// layer's post-solve pass runs on large sparse chains.
#pragma once

#include "ctmc/generator.hpp"
#include "linalg/matrix.hpp"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace socbuf::ctmc {

/// Solve pi Q = 0, sum(pi) = 1 directly. Requires an irreducible chain
/// (singular system otherwise); throws NumericalError when not solvable.
[[nodiscard]] linalg::Vector stationary_direct(const Generator& q);

/// Power iteration on the uniformized chain; converges for any finite
/// irreducible chain. `tolerance` bounds the max-norm change per step.
[[nodiscard]] linalg::Vector stationary_power(const Generator& q,
                                              double tolerance = 1e-12,
                                              std::size_t max_iterations =
                                                  200000);

/// An already-uniformized chain in gather form: row t of the incoming
/// CSR holds every jump into t, entries [offset[t], offset[t + 1]) of
/// source/probability, and stay[t] is t's strictly positive self-loop
/// probability. 32-bit indices: a chain holds at most 2^32 - 1 jumps.
struct GatherChain {
    std::vector<std::uint32_t> offset;  // n + 1 row offsets
    std::vector<std::uint32_t> source;
    std::vector<double> probability;
    linalg::Vector stay;
};

/// A stationary distribution and the sweeps that found it.
struct GatherStationary {
    linalg::Vector pi;
    std::size_t sweeps = 0;
};

/// Gauss–Seidel on the balance equations, in gather form: each sweep
/// walks t = 0..n-1 and sets, in place,
///     pi[t] = (row's probability * pi[source] terms, left to right)
///             * (1 / (1 - stay[t]))
/// so every state reads the values already updated in the same sweep,
/// then renormalizes pi to sum 1. A state that never leaves (stay 1)
/// keeps its own mass in the numerator and a divisor of 1. Stops when
/// the sweep's max-norm change drops below `tolerance`; throws
/// NumericalError on non-convergence, and when a sweep's total or change
/// is not finite. One serial pass per sweep.
[[nodiscard]] GatherStationary stationary_gauss_seidel(
    const GatherChain& chain, double tolerance, std::size_t max_iterations);

/// Max-norm of pi Q — how stationary a candidate distribution is.
[[nodiscard]] double stationarity_residual(const Generator& q,
                                           const linalg::Vector& pi);

}  // namespace socbuf::ctmc
