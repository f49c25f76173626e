#include "ctmc/stationary.hpp"

#include "linalg/lu.hpp"
#include "util/contracts.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
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

GatherStationary stationary_gauss_seidel(const GatherChain& chain,
                                        double tolerance,
                                        std::size_t max_iterations) {
    const std::size_t n = chain.stay.size();
    SOCBUF_REQUIRE_MSG(n > 0, "empty chain");
    SOCBUF_REQUIRE_MSG(chain.offset.size() == n + 1 &&
                           chain.offset.back() == chain.source.size() &&
                           chain.source.size() == chain.probability.size(),
                       "gather chain shape mismatch");
    const std::uint32_t* offset = chain.offset.data();
    const std::uint32_t* source = chain.source.data();
    const double* probability = chain.probability.data();
    // Per state: the weight of its own mass in the numerator and the
    // reciprocal of its divisor, once per chain (a multiply is off the
    // sweep's critical path where a divide is not). A leaving state
    // solves its balance equation pi[t] * (1 - stay[t]) = inflow; a state
    // that never leaves (stay 1) has no equation for pi[t], so it keeps
    // its mass and adds the inflow, as a power step would. 0 * pi[t] adds
    // exactly nothing to the fold.
    std::vector<double> keep(n, 0.0);
    std::vector<double> scale(n, 1.0);
    for (std::size_t t = 0; t < n; ++t) {
        const double move = 1.0 - chain.stay[t];
        if (move > 0.0)
            scale[t] = 1.0 / move;
        else
            keep[t] = 1.0;
    }

    linalg::Vector pi(n, 1.0 / static_cast<double>(n));
    for (std::size_t it = 0; it < max_iterations; ++it) {
        double delta = 0.0;
        double total = 0.0;
        for (std::size_t t = 0; t < n; ++t) {
            double acc = keep[t] * pi[t];
            for (std::uint32_t k = offset[t]; k < offset[t + 1]; ++k)
                acc += probability[k] * pi[source[k]];
            const double next = acc * scale[t];
            delta = std::max(delta, std::fabs(next - pi[t]));
            pi[t] = next;
            total += next;
        }
        // std::max drops a NaN change, and a NaN or infinite total would
        // normalize every entry to NaN: neither may pass as converged.
        if (!std::isfinite(total) || !std::isfinite(delta))
            throw util::NumericalError(
                "stationary_gauss_seidel: non-finite distribution");
        const double norm = 1.0 / total;
        for (double& v : pi) v *= norm;
        if (delta < tolerance) return {std::move(pi), it + 1};
    }
    throw util::NumericalError(
        "stationary_gauss_seidel: no convergence after " +
        std::to_string(max_iterations) + " iterations");
}

double stationarity_residual(const Generator& q, const linalg::Vector& pi) {
    SOCBUF_REQUIRE(pi.size() == q.size());
    const linalg::Vector r = q.matrix().multiply_transposed(pi);
    return linalg::norm_inf(r);
}

}  // namespace socbuf::ctmc
