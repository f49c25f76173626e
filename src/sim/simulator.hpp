// Event-driven simulator of an SoC communication architecture with finite
// buffers. Packets are generated per flow, queue at buffer sites, win bus
// arbitration, hop across bridges, and are counted as lost (attributed to
// their origin processor) whenever they meet a full buffer or trip the
// timeout policy.
#pragma once

#include "arch/presets.hpp"
#include "arch/sites.hpp"
#include "sim/config.hpp"

#include <cstddef>
#include <vector>

namespace socbuf::exec {
class Executor;
}

namespace socbuf::sim {

/// Simulate `system` with per-site buffer `capacities` (indexed like
/// arch::enumerate_buffer_sites). Returns per-processor / per-site / per-bus
/// statistics. Deterministic for a fixed (system, capacities, config).
[[nodiscard]] SimResult simulate(const arch::TestSystem& system,
                                 const std::vector<long>& capacities,
                                 const SimConfig& config);

/// Run once without the timeout policy and return the mean buffer waiting
/// time — the threshold the paper's timeout policy uses ("the average time
/// spent by a request in a buffer").
[[nodiscard]] double calibrate_timeout_threshold(
    const arch::TestSystem& system, const std::vector<long>& capacities,
    const SimConfig& config);

/// Per-buffer calibration of the same quantity: mean waiting time at each
/// site, scaled by `scale`; sites with no served packets fall back to the
/// scaled global mean. Feed the result to
/// SimConfig::site_timeout_thresholds.
[[nodiscard]] std::vector<double> calibrate_site_timeout_thresholds(
    const arch::TestSystem& system, const std::vector<long>& capacities,
    const SimConfig& config, double scale);

/// Both timeout-policy thresholds the paper's calibration produces, from
/// one set of no-timeout simulations: the scaled global mean buffer wait
/// and the scaled per-site means (same fallback rule as
/// calibrate_site_timeout_thresholds).
struct TimeoutCalibration {
    double global_threshold = 0.0;
    std::vector<double> site_thresholds;
};

/// Calibrate the timeout policy with `replications` independent
/// no-timeout simulations (seeds config.seed, config.seed + 1, ...)
/// fanned across `executor` and folded in replication order — safe from
/// inside a job already running on the executor (nested fan-outs make
/// progress on the calling worker; see exec/executor.hpp). Per-site
/// means apply the global fallback per replication, then average, so one
/// replication reproduces the serial calibrate_timeout_threshold /
/// calibrate_site_timeout_thresholds pair bit for bit — from a single
/// simulation instead of two — and any replication count is
/// bit-identical for any worker count.
[[nodiscard]] TimeoutCalibration calibrate_timeout(
    const arch::TestSystem& system, const std::vector<long>& capacities,
    const SimConfig& config, double scale, exec::Executor& executor,
    std::size_t replications = 1);

/// The per-site half of calibrate_timeout, fanned the same way: with one
/// replication the result equals the serial overload bit for bit.
[[nodiscard]] std::vector<double> calibrate_site_timeout_thresholds(
    const arch::TestSystem& system, const std::vector<long>& capacities,
    const SimConfig& config, double scale, exec::Executor& executor,
    std::size_t replications);

/// Average `runs` independent replications (seeds seed, seed+1, ...) and
/// return per-processor mean loss counts (the batch runner folds its
/// evaluation replications op for op the same way). Replications are
/// independent — each owns its RNG substream (seed = base seed +
/// replication index) — so they run on `threads` workers (0 = hardware
/// concurrency) and are folded in replication order: the result is
/// bit-identical for any thread count, including 1.
struct ReplicatedLosses {
    std::vector<double> mean_lost_per_processor;
    std::vector<double> stddev_lost_per_processor;
    double mean_total_lost = 0.0;
    double mean_total_offered = 0.0;
};
[[nodiscard]] ReplicatedLosses replicate_losses(
    const arch::TestSystem& system, const std::vector<long>& capacities,
    const SimConfig& config, std::size_t runs, std::size_t threads = 1);

}  // namespace socbuf::sim
