// Simulation configuration and results for the architecture simulator.
#pragma once

#include <cstdint>
#include <vector>

namespace socbuf::sim {

/// Every bus arbitrates round-robin over its buffer sites.
struct SimConfig {
    double horizon = 4000.0;  // simulated time units
    double warmup = 400.0;    // statistics discarded before this time
    std::uint64_t seed = 1;
    /// Timeout drop policy (the paper's third bar): packets whose waiting
    /// time exceeds the threshold are dropped at arbitration instants.
    bool timeout_enabled = false;
    double timeout_threshold = 0.0;
    /// Optional per-site thresholds ("the average time spent by a request
    /// in a buffer" read per buffer); overrides timeout_threshold where
    /// positive. Must be empty or cover every site.
    std::vector<double> site_timeout_thresholds;
};

inline bool operator==(const SimConfig& a, const SimConfig& b) {
    return a.horizon == b.horizon && a.warmup == b.warmup &&
           a.seed == b.seed && a.timeout_enabled == b.timeout_enabled &&
           a.timeout_threshold == b.timeout_threshold &&
           a.site_timeout_thresholds == b.site_timeout_thresholds;
}
inline bool operator!=(const SimConfig& a, const SimConfig& b) {
    return !(a == b);
}

/// Everything measured in one run. Loss is attributed to the packet's
/// *originating* processor wherever on its route it is dropped, matching
/// the paper's per-processor loss bars.
struct SimResult {
    double measured_time = 0.0;  // horizon - warmup

    // Per processor (origin).
    std::vector<std::uint64_t> offered;
    std::vector<std::uint64_t> delivered;
    std::vector<std::uint64_t> lost;

    // Per flow id.
    std::vector<std::uint64_t> flow_lost;

    // Per buffer site.
    std::vector<std::uint64_t> site_arrivals;
    std::vector<std::uint64_t> site_losses;
    std::vector<double> site_mean_wait;       // enqueue -> service start
    std::vector<double> site_mean_occupancy;  // time-weighted
    std::vector<double> site_observed_rate;   // arrivals / measured_time

    // Per bus.
    std::vector<double> bus_utilization;

    /// Events the DES fired over the whole run, warmup included.
    std::uint64_t events_fired = 0;

    [[nodiscard]] std::uint64_t total_offered() const;
    [[nodiscard]] std::uint64_t total_lost() const;
    [[nodiscard]] std::uint64_t total_delivered() const;

    /// Mean waiting time over all served packets (used to calibrate the
    /// timeout policy's threshold, per the paper).
    [[nodiscard]] double overall_mean_wait() const;

    /// Sum over flows of weight * lost packets; weights supplied by caller.
    [[nodiscard]] double weighted_loss(
        const std::vector<double>& flow_weights) const;

    // Served packet counts per site (post-warmup).
    std::vector<std::uint64_t> site_served;
};

}  // namespace socbuf::sim
