// Closed-form M/M/1/K performance measures. These are the analytic ground
// truth that the event simulator and the CTMDP models are validated
// against.
#pragma once

#include <cstddef>

namespace socbuf::queueing {

/// Performance measures of an M/M/1/K loss queue.
struct Mm1kMetrics {
    double blocking_probability = 0.0;  // P(arrival sees a full system)
    double loss_rate = 0.0;             // lambda * blocking_probability
    double throughput = 0.0;            // lambda * (1 - blocking)
    double mean_occupancy = 0.0;        // E[number in system]
    double mean_sojourn = 0.0;          // mean time in system of accepted jobs
    double utilization = 0.0;           // P(server busy)
};

/// Analyze an M/M/1/K queue (capacity `k` includes the job in service).
/// Handles rho == 1 via the uniform-distribution limit.
[[nodiscard]] Mm1kMetrics analyze_mm1k(double lambda, double mu,
                                       std::size_t k);

}  // namespace socbuf::queueing
