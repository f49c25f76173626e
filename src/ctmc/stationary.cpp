#include "ctmc/stationary.hpp"

#include "exec/executor.hpp"
#include "linalg/lu.hpp"
#include "util/contracts.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace socbuf::ctmc {

linalg::Vector stationary_direct(const Generator& q) {
    const std::size_t n = q.size();
    SOCBUF_REQUIRE_MSG(n > 0, "empty chain");
    // pi Q = 0 with sum(pi) = 1  <=>  A x = b where A = Q^T with its last
    // row replaced by all-ones, b = e_last.
    linalg::Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c) a(r, c) = q.matrix()(c, r);
    for (std::size_t c = 0; c < n; ++c) a(n - 1, c) = 1.0;
    linalg::Vector b(n, 0.0);
    b[n - 1] = 1.0;
    linalg::Vector pi = linalg::LuDecomposition(a).solve(b);
    // Clamp tiny negative round-off and renormalize.
    double total = 0.0;
    for (double& v : pi) {
        if (v < 0.0 && v > -1e-9) v = 0.0;
        if (v < 0.0)
            throw util::NumericalError(
                "stationary_direct: negative probability (chain reducible?)");
        total += v;
    }
    SOCBUF_ASSERT(total > 0.0);
    for (double& v : pi) v /= total;
    return pi;
}

linalg::Vector stationary_power(const Generator& q, double tolerance,
                                std::size_t max_iterations) {
    const std::size_t n = q.size();
    SOCBUF_REQUIRE_MSG(n > 0, "empty chain");
    // Strictly larger lambda than the max exit rate keeps self-loops
    // positive, which makes the uniformized chain aperiodic.
    const double lambda = q.max_exit_rate() * 1.05 + 1e-9;
    const linalg::Matrix p = q.uniformized(lambda);
    linalg::Vector pi(n, 1.0 / static_cast<double>(n));
    for (std::size_t it = 0; it < max_iterations; ++it) {
        linalg::Vector next = p.multiply_transposed(pi);
        const double delta = linalg::max_abs_diff(next, pi);
        pi = std::move(next);
        if (delta < tolerance) return pi;
    }
    throw util::NumericalError("stationary_power: no convergence after " +
                               std::to_string(max_iterations) +
                               " iterations");
}

linalg::Vector stationary_power_gather(const GatherChain& chain,
                                       double tolerance,
                                       std::size_t max_iterations,
                                       exec::Executor* executor,
                                       std::size_t parallel_min_states) {
    const std::size_t n = chain.stay.size();
    SOCBUF_REQUIRE_MSG(n > 0, "empty chain");
    SOCBUF_REQUIRE_MSG(chain.offset.size() == n + 1 &&
                           chain.offset.back() == chain.source.size() &&
                           chain.source.size() == chain.probability.size(),
                       "gather chain shape mismatch");
    const std::uint32_t* offset = chain.offset.data();
    const std::uint32_t* source = chain.source.data();
    const double* probability = chain.probability.data();
    const double* stay = chain.stay.data();
    const bool fan = executor != nullptr && !executor->serial() &&
                     n >= parallel_min_states;
    constexpr std::size_t kChunk = 256;
    std::vector<double> chunk_delta((n + kChunk - 1) / kChunk, 0.0);

    linalg::Vector pi(n, 1.0 / static_cast<double>(n));
    linalg::Vector next(n, 0.0);
    const auto sweep = [&](std::size_t lo, std::size_t hi) {
        double local = 0.0;
        for (std::size_t s = lo; s < hi; ++s) {
            double acc = stay[s] * pi[s];
            for (std::uint32_t k = offset[s]; k < offset[s + 1]; ++k)
                acc += probability[k] * pi[source[k]];
            next[s] = acc;
            local = std::max(local, std::fabs(acc - pi[s]));
        }
        chunk_delta[lo / kChunk] = local;
    };
    for (std::size_t it = 0; it < max_iterations; ++it) {
        std::fill(chunk_delta.begin(), chunk_delta.end(), 0.0);
        if (fan)
            executor->for_ranges(n, sweep, kChunk);
        else
            sweep(0, n);
        double delta = 0.0;
        for (const double d : chunk_delta) delta = std::max(delta, d);
        std::swap(pi, next);
        if (delta < tolerance) return pi;
    }
    throw util::NumericalError(
        "stationary_power_gather: no convergence after " +
        std::to_string(max_iterations) + " iterations");
}

double stationarity_residual(const Generator& q, const linalg::Vector& pi) {
    SOCBUF_REQUIRE(pi.size() == q.size());
    const linalg::Vector r = q.matrix().multiply_transposed(pi);
    return linalg::norm_inf(r);
}

}  // namespace socbuf::ctmc
