#include "queueing/mm1k.hpp"

#include "ctmc/birth_death.hpp"
#include "util/contracts.hpp"

#include <cmath>

namespace socbuf::queueing {

Mm1kMetrics analyze_mm1k(double lambda, double mu, std::size_t k) {
    SOCBUF_REQUIRE_MSG(lambda >= 0.0, "negative arrival rate");
    SOCBUF_REQUIRE_MSG(mu > 0.0, "service rate must be positive");
    SOCBUF_REQUIRE_MSG(k > 0, "capacity must be at least 1");

    const auto pi = ctmc::mm1k_stationary(lambda, mu, k);
    Mm1kMetrics m;
    m.blocking_probability = pi[k];
    m.loss_rate = lambda * m.blocking_probability;
    m.throughput = lambda - m.loss_rate;
    for (std::size_t i = 0; i <= k; ++i)
        m.mean_occupancy += static_cast<double>(i) * pi[i];
    m.utilization = 1.0 - pi[0];
    // Little's law over accepted jobs.
    m.mean_sojourn = m.throughput > 0.0 ? m.mean_occupancy / m.throughput
                                        : 0.0;
    return m;
}

}  // namespace socbuf::queueing
