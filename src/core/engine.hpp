// BufferSizingEngine — the paper's methodology end to end:
//
//   1. split the bridged architecture into linear subsystems, inserting
//      bridge buffers (split::),
//   2. model each subsystem as a CTMDP and solve for the loss-minimizing
//      arbitration (Feinberg LP for small models, relative value iteration
//      for large ones — they agree, see tests),
//   3. translate the solution's state-action probabilities into buffer
//      space requirements (the K-switching translation: per-flow occupancy
//      quantiles + means, apportioned to the integer budget),
//   4. re-simulate with the new buffer lengths, compare losses, and
//      iterate (default 10 rounds, as in the paper), refreshing arrival
//      rates from the measured traffic each round; the simulator's buses
//      arbitrate round-robin, so the CTMDP's arbitration choice reaches
//      the simulation only through the buffer sizes it translates into,
//   5. keep the best allocation seen.
#pragma once

#include "core/allocation.hpp"
#include "ctmdp/solver.hpp"
#include "sim/simulator.hpp"
#include "split/splitter.hpp"

#include <cstddef>
#include <vector>

namespace socbuf::exec {
class Executor;
}
namespace socbuf::ctmdp {
class SolveCache;
}

namespace socbuf::core {

/// Solver selection lives in the ctmdp solver layer now; the alias keeps
/// the engine's public surface (core::SolverChoice::kAuto/kLp/...) stable.
/// kAuto escalates LP -> policy iteration -> value iteration by model size.
using SolverChoice = ctmdp::SolverChoice;

struct SizingOptions {
    long total_budget = 160;
    /// Which candidate bridge sites carry an inserted buffer
    /// (split::Placement). The default selects every bridge site — the
    /// paper's split — and keeps every report bit-identical to the
    /// pre-placement engine. A deselected site is pinned to a single
    /// passthrough slot and excluded from the apportionment; the *total*
    /// budget is unchanged, so placements compete at equal budget.
    split::Placement placement;
    int iterations = 10;       // resize/resimulate rounds (paper: 10)
    double tail_mass = 0.02;   // occupancy-quantile tail for requirements
    long model_cap = 3;        // per-flow occupancy cap inside the CTMDP
    /// kAuto escalation thresholds; the named solver-layer constants are
    /// the single source of truth (DispatchOptions defaults to the same
    /// ones), so a retune there lands here without a second edit.
    std::size_t lp_pair_limit = ctmdp::kDefaultLpPairLimit;
    std::size_t pi_state_limit = ctmdp::kDefaultPiStateLimit;
    SolverChoice solver = SolverChoice::kAuto;
    /// Run the VI rung with the in-place Gauss–Seidel sweep (the
    /// default) rather than the fanned Jacobi sweep. The two follow
    /// different trajectories to the same fixed point, and every shipped
    /// scenario gives the same report with either; false is kept for
    /// the benchmark's replay and the sweep-invariance test.
    bool gauss_seidel = true;
    /// Replications of each round's evaluation simulation (seeds
    /// sim.seed, sim.seed + 1, ...), fanned across the executor and
    /// folded in replication order: every round — and the uniform
    /// baseline it competes with — is scored, and the measured rates /
    /// occupancies refreshed, on the replication *means*, which smooths
    /// the fixed point on noisy short horizons. 1 (the default) keeps
    /// the single-sim path bit for bit. `before`/`after` in the report
    /// stay single-sim results either way.
    std::size_t eval_replications = 1;
    /// Weight of the saturated-buffer correction: when mass piles up at the
    /// modeled cap, the true requirement exceeds the cap and the score is
    /// extrapolated by boost * P(k = cap) * cap.
    double saturation_boost = 4.0;
    /// Weight of the *measured* mean occupancy in the K-switching score.
    /// By default the CTMDP is Poisson; bursty flows build far deeper queues
    /// than it predicts, and the measured occupancy is exactly the
    /// "better profiling" signal the paper suggests adding.
    double measured_occupancy_weight = 2.5;
    /// Build each subsystem model with one ON/OFF phase digit per bursty
    /// flow (a 2-state MMPP inside the CTMDP; the state space grows 2x per
    /// bursty flow) instead of as a Poisson model corrected by the measured
    /// occupancy. See bench_modulated_models for what this buys.
    bool use_modulated_models = false;
    bool use_measured_rates = true;  // refresh rates from each simulation
    /// Stop early once the allocation is a fixed point (two identical
    /// rounds); the paper's 10 rounds are an upper bound, not a must.
    bool early_stop = true;
    sim::SimConfig sim;              // evaluation simulator settings
};

struct IterationRecord {
    Allocation allocation;
    double total_lost = 0.0;
    double weighted_loss = 0.0;
};

struct SizingReport {
    split::SplitResult split;
    Allocation initial;  // uniform (the "constant sizing" baseline)
    Allocation best;     // lowest weighted loss seen
    /// Weighted loss of `best` (replication means at the evaluation
    /// seeds) — the score the insertion search ranks placements by.
    double best_weighted_loss = 0.0;
    sim::SimResult before;  // simulated under `initial`
    sim::SimResult after;   // simulated under `best`
    std::vector<IterationRecord> history;
    /// K-switching scores of the last round (per site; 0 = no traffic).
    std::vector<double> site_scores;
    // Per-algorithm counts of the subsystem solutions this run consumed,
    // tallied from each solution's solved_by — the same whether a
    // solution was computed here or served from a shared solve cache, so
    // the counts are deterministic for any executor width.
    std::size_t switching_states = 0;  // across all solutions
    std::size_t lp_solves = 0;
    std::size_t vi_solves = 0;
    std::size_t pi_solves = 0;

    /// Loss improvement of `after` over `before` (1 = all loss removed).
    [[nodiscard]] double improvement() const;
};

class BufferSizingEngine {
public:
    explicit BufferSizingEngine(SizingOptions options);

    /// Run the full pipeline on `system` serially: the same as
    /// run(system, executor) on a one-worker executor, which spawns no
    /// thread.
    ///
    /// Each distinct allocation is evaluated once per run: the baseline
    /// and every round go through one list of (allocation, evaluation)
    /// pairs, so a fixed-point round or a repeated allocation reuses the
    /// sims it already ran, and `before` / `after` are the stored
    /// replication-0 results of `initial` and `best` (the same bits a
    /// direct sim::simulate at options().sim returns).
    [[nodiscard]] SizingReport run(const arch::TestSystem& system) const;

    /// Run the full pipeline on the caller's execution context: the
    /// subsystem solves and evaluation sims of every round fan out on
    /// `executor`'s workers, and — when `cache` is non-null — the solves
    /// go through the batch-wide solve cache, so identical CTMDPs
    /// (fixed-point rounds, sweep repeats) are solved once. Results are
    /// bit-identical to run(system) for any executor width; the report's
    /// lp/vi/pi counts tally each consumed solution's solved_by, so a
    /// cache hit counts like the solve that filled it.
    [[nodiscard]] SizingReport run(const arch::TestSystem& system,
                                   exec::Executor& executor,
                                   ctmdp::SolveCache* cache = nullptr) const;

    [[nodiscard]] const SizingOptions& options() const { return options_; }

private:
    SizingOptions options_;
};

}  // namespace socbuf::core
