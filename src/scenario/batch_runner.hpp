// Deterministic, pipelined batch execution of scenarios on one shared
// executor.
//
// A batch expands its ScenarioSpecs into two deterministic job lists:
//
//   sizing jobs, one per (scenario, variant, budget): build the
//     testbench, run the BufferSizingEngine (through the batch's own
//     ctmdp::SolveCache, so identical subsystem CTMDPs across rounds,
//     budgets and replications are solved once), and calibrate the
//     timeout policy when the spec asks for it;
//   evaluation jobs, one per (sizing job, replication): simulate the
//     constant and resized allocations (and optionally the timeout
//     policy) with seed = spec.sim.seed + replication.
//
// There is **no stage barrier** between the two: the runner submits every
// sizing job to one exec::TaskGraph up front, and each sizing job submits
// its own evaluation replications the moment it finishes — so evaluation
// work overlaps the remaining sizing work (BatchReport::eval_overlap
// counts how often) instead of the whole batch idling until the slowest
// sizing run completes. Scheduling is **priority-aware** on top: sizing
// jobs enter the graph at exec::Priority::kSizing, longest estimated
// solve first, and evaluation replications at exec::Priority::kEvaluation,
// so a finished sizing job's evaluations are claimed before still-queued
// sizing work — first results land as early as the pool allows
// (BatchReport::first_eval_latency_s measures it). Sizing jobs keep the
// *shared* executor for their per-subsystem solves, per-round evaluation
// sims and timeout-calibration sims (spec.calibration_replications fans
// the latter): nested fan-outs on one pool are safe (the caller drives
// its own loop — see the nesting rule in exec/executor.hpp), so a lone
// sizing run still parallelizes internally.
//
// Every job writes an index-addressed slot and the runner folds the slots
// in expansion order, so a BatchReport is **bit-identical for any worker
// count, including 1** — the same contract the exec layer gives
// parallel_map, lifted to whole batches. That covers the runs
// *and* the solve-cache counters (each resident key is solved exactly
// once, and every run tallies the algorithm behind each solution it
// consumed, so neither depends on scheduling). Two fields reflect the
// execution rather than the workload by design: `workers` records the
// width, and `eval_overlap` is a scheduling-dependent pipelining
// diagnostic; neither is serialized into the run data.
#pragma once

#include "core/allocation.hpp"
#include "ctmdp/solve_cache.hpp"
#include "exec/executor.hpp"
#include "scenario/scenario.hpp"
#include "util/table.hpp"

#include <cstddef>
#include <string>
#include <vector>

namespace socbuf::scenario {

struct BatchOptions {
    /// Share one solve cache across every engine run of the batch. Results
    /// are identical either way; this is purely a work-avoidance knob
    /// (and the thing bench_batch_scenarios measures).
    bool use_solve_cache = true;
};

/// Outcome of one run's buffer-insertion placement search. Only present
/// (searched = true) when the spec's $.insertion.search asked for it;
/// default-spec runs never carry one, which keeps their serialized
/// reports byte-identical to pre-search socbuf.
struct InsertionRunReport {
    bool searched = false;
    /// Candidate bridge sites the winning placement kept / dropped, by
    /// site name, in site-id order.
    std::vector<std::string> selected_sites;
    std::vector<std::string> deselected_sites;
    /// Best weighted loss of the winning placement vs the fixed
    /// all-selected preset, both at the same total budget (deselected
    /// sites keep one passthrough slot off the top). searched_loss <=
    /// preset_loss by construction — the preset is always evaluated.
    double searched_loss = 0.0;
    double preset_loss = 0.0;
    std::size_t plans_evaluated = 0;
    std::size_t plans_pruned = 0;
    bool exhaustive = false;
};

/// One (scenario, variant, budget) outcome with its replicated evaluation.
struct ScenarioRunResult {
    std::string scenario;
    std::string variant;  // empty for single-variant scenarios
    long budget = 0;
    std::size_t replications = 0;

    /// Placement-search outcome; insertion.searched is false for
    /// default (search-off) specs.
    InsertionRunReport insertion;

    core::Allocation constant_alloc;  // uniform baseline
    core::Allocation resized_alloc;   // engine's best

    // Replication means, from sim::fold_replications: a row equals a
    // sim::replicate_losses call on the same system, allocation and seeds.
    std::vector<double> pre_loss;      // per processor, constant sizing
    std::vector<double> post_loss;     // per processor, after resizing
    std::vector<double> timeout_loss;  // per processor, timeout policy
    double pre_total = 0.0;
    double post_total = 0.0;
    double timeout_total = 0.0;  // 0 unless the spec evaluated timeouts
    double timeout_threshold = 0.0;

    std::size_t engine_rounds = 0;  // sizing iterations actually run
    std::size_t lp_solves = 0;
    std::size_t vi_solves = 0;
    std::size_t pi_solves = 0;

    /// Fractional loss reduction of resizing vs constant sizing.
    [[nodiscard]] double improvement() const {
        return pre_total > 0.0 ? 1.0 - post_total / pre_total : 0.0;
    }
};

struct BatchReport {
    /// Spec-major, then variant-major, then budget order — the expansion
    /// order, independent of which worker finished first.
    std::vector<ScenarioRunResult> runs;
    ctmdp::SolveCacheStats cache;  // zeros when the cache was disabled
    /// Whether the batch ran with the solve cache at all — lets report
    /// consumers tell "disabled" apart from "enabled but cold".
    bool cache_enabled = true;
    std::size_t workers = 1;
    /// Pipelining diagnostic: evaluation jobs that *started* while some
    /// other job's sizing run was still in flight — 0 under a serial
    /// executor, > 0 once the task graph overlaps the stages. Depends on
    /// scheduling by nature, so it is excluded from to_json()/to_csv().
    std::size_t eval_overlap = 0;
    /// Latency diagnostic: seconds from batch start until the *first*
    /// evaluation job completed — the time to the first usable result,
    /// which priority scheduling is designed to shrink (evaluations are
    /// claimed before queued sizing jobs). Wall-clock and scheduling
    /// dependent by nature, so — like eval_overlap — it is excluded from
    /// to_json()/to_csv(). Negative when the batch ran no evaluation.
    double first_eval_latency_s = -1.0;

    /// One row per run: totals, gain, solver work.
    [[nodiscard]] util::Table summary_table() const;
    /// The summary as RFC 4180 CSV.
    [[nodiscard]] std::string to_csv() const;
    /// Full structured report: per-processor means, allocations, cache
    /// stats. Deterministic (ordered keys, round-trip numbers).
    [[nodiscard]] std::string to_json(int indent = 2) const;
};

class BatchRunner {
public:
    explicit BatchRunner(exec::Executor& executor, BatchOptions options = {});

    /// Run every spec (validated first: ScenarioSpec::validate, then
    /// scenario::check_runnable) and fold the results in expansion order.
    /// Deterministic for any executor width.
    [[nodiscard]] BatchReport run(const std::vector<ScenarioSpec>& specs);
    [[nodiscard]] BatchReport run(const ScenarioSpec& spec);

private:
    exec::Executor& executor_;
    BatchOptions options_;
};

}  // namespace socbuf::scenario
