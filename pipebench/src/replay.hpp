// The traced replay: the batch pipeline driven from outside, one public
// layer call at a time, with a span around every call.
//
// For each sizing job it calls split::split_architecture,
// core::build_subsystem_models, ctmdp::SolveCache::solve,
// util::apportion_largest_remainder, sim::simulate and
// sim::calibrate_timeout in the order core::BufferSizingEngine and
// scenario::BatchRunner do, and wraps insertion::search_placements around
// an evaluator that replays one sizing run per plan. The replay must
// reproduce the Session report bit for bit (check_replay); a change to the
// engine's loop that the replay does not mirror fails that check instead
// of silently measuring something else.
#pragma once

#include "check.hpp"
#include "ctmdp/solve_cache.hpp"
#include "ctmdp/solver.hpp"
#include "scenario/scenario.hpp"
#include "trace.hpp"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pipebench {

/// One SolveCache::solve call of the replay.
struct SolveRecord {
    bool hit = false;  // exact at 1 thread (counter delta around the call)
    socbuf::ctmdp::SolverKind solved_by = socbuf::ctmdp::SolverKind::kLp;
    socbuf::ctmdp::SolverKind selected = socbuf::ctmdp::SolverKind::kLp;
    std::size_t iterations = 0;  // pivots, PI updates or VI sweeps
    std::size_t states = 0;
    bool converged = true;
    std::size_t key_bytes = 0;  // fingerprint size, misses only
};

struct ReplayResult {
    std::vector<ReplayRun> runs;  // expansion order, like BatchReport::runs
    socbuf::ctmdp::SolveCacheStats cache;
    std::vector<Span> spans;
    std::vector<SolveRecord> solves;
    std::size_t split_calls = 0;
    std::size_t sizing_runs = 0;  // engine runs, plan evaluations included
    std::size_t rounds = 0;       // sizing rounds over all engine runs
    std::size_t model_states = 0;
    std::size_t sim_runs = 0;  // direct sim::simulate calls
    std::uint64_t sim_packets = 0;
    std::size_t plans_evaluated = 0;
    std::size_t plan_space = 0;
    std::size_t exec_tasks = 0;  // tasks the replay handed Executor::map
    double exec_wait_s = 0.0;    // submission -> start, summed over them
    double wall_s = 0.0;
};

/// Replay `specs` as one batch on a `threads`-wide executor with a fresh
/// unlimited solve cache.
[[nodiscard]] ReplayResult replay(
    const std::vector<socbuf::scenario::ScenarioSpec>& specs,
    std::size_t threads);

}  // namespace pipebench
