// Stationary distributions of finite CTMCs: a direct solver (LU on the
// normalized balance system) and a power-iteration fallback for
// cross-checking.
#pragma once

#include "ctmc/generator.hpp"
#include "linalg/matrix.hpp"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace socbuf::exec {
class Executor;
}  // namespace socbuf::exec

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

/// Power iteration next = P^T pi, in gather form: next[t] = stay[t] *
/// pi[t] + the row's probability * pi[source] terms, left to right. Each
/// next[t] lands in its own slot and the convergence delta is a max fold
/// (order-exact), so the sweep is chunked over `executor` when n >=
/// parallel_min_states and the result is bit-identical for any worker
/// count. Throws NumericalError on non-convergence.
[[nodiscard]] linalg::Vector stationary_power_gather(
    const GatherChain& chain, double tolerance, std::size_t max_iterations,
    exec::Executor* executor = nullptr,
    std::size_t parallel_min_states = 1024);

/// Max-norm of pi Q — how stationary a candidate distribution is.
[[nodiscard]] double stationarity_residual(const Generator& q,
                                           const linalg::Vector& pi);

}  // namespace socbuf::ctmc
