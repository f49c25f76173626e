// Event-driven simulator of an SoC communication architecture with finite
// buffers. Packets are generated per flow, queue at buffer sites, win the
// bus's round-robin arbitration, hop across bridges, and are counted as lost (attributed to
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

/// Both timeout-policy thresholds the paper's calibration produces, from
/// one set of no-timeout simulations: the scaled global mean buffer wait
/// ("the average time spent by a request in a buffer") and the scaled
/// per-site means, where a site with no served packets falls back to the
/// global mean. Feed site_thresholds to SimConfig::site_timeout_thresholds.
struct TimeoutCalibration {
    double global_threshold = 0.0;
    std::vector<double> site_thresholds;
};

/// Calibrate the timeout policy with `replications` independent
/// no-timeout simulations (seeds config.seed, config.seed + 1, ...)
/// fanned across `executor` and folded in replication order — safe from
/// inside a job already running on the executor (nested fan-outs make
/// progress on the calling worker; see exec/executor.hpp). Per-site
/// means apply the global fallback per replication, then average. With
/// one replication the thresholds are `scale` times the no-timeout
/// simulation's overall_mean_wait() and per-site means; any replication
/// count is bit-identical for any worker count.
[[nodiscard]] TimeoutCalibration calibrate_timeout(
    const arch::TestSystem& system, const std::vector<long>& capacities,
    const SimConfig& config, double scale, exec::Executor& executor,
    std::size_t replications = 1);

/// Per-processor loss statistics over independent replications.
struct ReplicatedLosses {
    std::vector<double> mean_lost_per_processor;
    std::vector<double> stddev_lost_per_processor;
    double mean_total_lost = 0.0;
    double mean_total_offered = 0.0;
};

/// The replication-mean fold: per-processor mean and sample stddev of
/// the loss counts, and the mean total lost and offered, folded in the
/// order of `results` (one entry per replication, at least one).
/// replicate_losses and the batch runner's evaluation rows both fold
/// through it, so a batch row equals a replicate_losses call bit for bit.
[[nodiscard]] ReplicatedLosses fold_replications(
    const std::vector<SimResult>& results);

/// Simulate `runs` independent replications (seeds seed, seed+1, ...)
/// and fold them with fold_replications. Each replication owns its RNG
/// substream (seed = base seed + replication index), so they fan across
/// `executor` and are folded in replication order: the result is
/// bit-identical for any worker count, including 1.
[[nodiscard]] ReplicatedLosses replicate_losses(
    const arch::TestSystem& system, const std::vector<long>& capacities,
    const SimConfig& config, std::size_t runs, exec::Executor& executor);

}  // namespace socbuf::sim
