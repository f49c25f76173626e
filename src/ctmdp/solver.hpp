// The unified average-cost CTMDP solver layer.
//
// Three algorithms can solve a subsystem's average-cost problem — the
// Feinberg occupation-measure LP (lp_solver.hpp), relative value iteration
// (value_iteration.hpp) and Howard policy iteration (policy_iteration.hpp).
// They trade off very differently: the LP is exact but its tableau grows
// with the pair count; policy iteration converges in a handful of updates
// but each one solves a dense linear system (O(states^3)); value iteration
// is matrix-free and scales furthest.
//
// This header erases that choice behind one dispatcher: SolverRegistry
// runs a SolverChoice (kAuto escalates LP -> PI -> VI by model size) and
// returns a SubsystemSolution (gain + stationary distribution + occupation
// measure + policy) whatever the algorithm. It holds no state, so
// concurrent solves need no synchronisation; callers that count solves per
// algorithm tally each solution's solved_by (core::BufferSizingEngine
// does).
#pragma once

#include "ctmdp/lp_solver.hpp"
#include "ctmdp/model.hpp"
#include "ctmdp/policy.hpp"
#include "ctmdp/policy_iteration.hpp"
#include "ctmdp/value_iteration.hpp"
#include "linalg/matrix.hpp"

#include <cstddef>
#include <vector>

namespace socbuf::ctmdp {

/// Which algorithm produced (or should produce) a solution.
enum class SolverKind { kLp = 0, kValueIteration = 1, kPolicyIteration = 2 };

[[nodiscard]] const char* to_string(SolverKind kind);

/// How a caller asks for a solver. Distinct from SolverKind: kAuto is a
/// selection policy, not an algorithm.
enum class SolverChoice {
    kAuto,             // size-based escalation: LP -> PI -> VI
    kLp,               // force the occupation-measure LP
    kValueIteration,   // force relative value iteration
    kPolicyIteration,  // force Howard policy iteration
};

/// Everything a consumer (the K-switching translation, benches, tests)
/// needs from an average-cost solve, whichever algorithm ran.
struct SubsystemSolution {
    double gain = 0.0;               // optimal long-run average cost
    linalg::Vector stationary;       // pi(s) under the returned policy
    std::vector<double> occupation;  // x(s,a), flat pair-indexed
    RandomizedPolicy policy;
    /// Relative value function h (h(ref) = 0) for PI/VI solves; empty for
    /// LP solves.
    linalg::Vector bias;
    /// Algorithm-specific effort: simplex pivots, VI sweeps, or PI policy
    /// updates. Comparable only between solves of the same solved_by.
    std::size_t iterations = 0;
    std::size_t switching_states = 0;  // states where the policy randomizes
    SolverKind solved_by = SolverKind::kLp;
    bool converged = false;
};

/// Per-algorithm tuning knobs, shared by every dispatch path.
struct SolverOptions {
    ViOptions vi;
    PiOptions pi;
};

/// Canonical kAuto escalation thresholds. One definition shared by every
/// consumer (DispatchOptions below, core::SizingOptions, CLI help text) so
/// a retune lands everywhere at once. The LP rung is unchanged from the
/// banded-PI retune: banded PI beats the LP ~13x already at ~300 pairs.
/// The PI/VI boundary was re-measured with the scaled VI rung in place
/// (executor-fanned Jacobi sweeps plus the then opt-in red-black
/// Gauss–Seidel sweep, since replaced by the in-place one; see
/// the vi_scaling block of BENCH_ctmdp_solvers.json), on the figure-1
/// bus-b family (narrow band, bw ~ n^(2/3)) and the np-cluster-scaling
/// ingress buses at pe >= 6 (wide band, bw = n/4): PI still wins at 729
/// states on the narrow-band family (35 ms vs 41 ms serial Jacobi, ~15%)
/// but serial VI already ties it at 1000 states (47 ms vs 49 ms), beats
/// it 3.4x at 1024 states on the wide-band np buses (30 ms vs 103 ms),
/// and the Gauss–Seidel sweep wins from 729 up (29 ms vs 35 ms) — so the
/// former crossover band (768, 1000] now belongs to the VI rung, while
/// 768 keeps the measured 729-state PI win on the PI rung.
inline constexpr std::size_t kDefaultLpPairLimit = 320;
inline constexpr std::size_t kDefaultPiStateLimit = 768;

/// Dispatch policy: how kAuto escalates, and the forced choice.
struct DispatchOptions {
    SolverChoice choice = SolverChoice::kAuto;
    /// kAuto uses the LP while pair_count() <= lp_pair_limit ...
    std::size_t lp_pair_limit = kDefaultLpPairLimit;
    /// ... then policy iteration while state_count() <= pi_state_limit
    /// (each PI update solves a banded or dense states x states system) ...
    std::size_t pi_state_limit = kDefaultPiStateLimit;
    /// ... and value iteration beyond that.
    SolverOptions solver;
};

/// Dispatches choices to the three algorithms. Stateless: solve() is
/// const and safe to call from multiple threads concurrently.
class SolverRegistry {
public:
    /// The algorithm dispatch() would run for `model` under `options`
    /// before any failure fallback.
    [[nodiscard]] SolverKind select(const CtmdpModel& model,
                                    const DispatchOptions& options) const;

    /// Solve `model` per `options`. kAuto escalates by size and falls
    /// through to the next algorithm in the LP -> PI -> VI chain if the
    /// chosen one fails or does not converge; a forced choice that fails
    /// propagates its error instead. An algorithm that fails outright
    /// (e.g. an infeasible LP) throws util::NumericalError.
    [[nodiscard]] SubsystemSolution solve(
        const CtmdpModel& model, const DispatchOptions& options) const;
};

}  // namespace socbuf::ctmdp
