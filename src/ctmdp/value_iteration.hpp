// Relative value iteration for unconstrained average-cost CTMDPs via
// uniformization. This is the fast path the sizing engine uses when a
// subsystem's occupation-measure LP would be too large; on small models it
// must (and in tests does) agree with the LP gain.
#pragma once

#include "ctmdp/model.hpp"
#include "ctmdp/policy.hpp"
#include "linalg/matrix.hpp"

#include <cstddef>

namespace socbuf::exec {
class Executor;
}  // namespace socbuf::exec

namespace socbuf::ctmdp {

struct ViResult {
    double gain = 0.0;            // optimal long-run average cost (per time)
    linalg::Vector bias;          // relative value function (h(ref) = 0)
    /// Per state, the first action in model order whose Bellman value on
    /// `bias` is within a fixed tie tolerance of the state's minimum, so
    /// actions that tie in exact arithmetic resolve the same way
    /// whichever sweep produced the bias.
    DeterministicPolicy policy;
    /// Every sweep run, Bellman and evaluation; `max_iterations` caps it.
    std::size_t iterations = 0;
    /// The full Bellman sweeps among them (all of them for Jacobi).
    std::size_t bellman_sweeps = 0;
    /// The last sweep's residual: the span of the Bellman update delta
    /// (Jacobi), or max(max|dh|, |dg|) (Gauss–Seidel).
    double span_residual = 0.0;
    /// The residual fell below the tolerance with a finite gain and
    /// bias. A non-finite residual or gain never counts as converged.
    bool converged = false;
};

/// Which sweep the iteration runs.
///
///   * kGaussSeidel — the default: an in-place, natural-order sweep
///     (White's relative method). Each sweep fixes the gain estimate g
///     from the reference state's explicit Bellman value on the
///     pre-sweep h, then walks the states 0..n-1 and writes
///     h(s) = min_a [explicit value] - g in place, so every state reads
///     the values already updated in the same sweep. It stops when
///     max|dh| and |dg| both drop below the tolerance. Every Bellman
///     sweep that has not converged is followed by a fixed number of
///     in-place evaluation sweeps of its greedy policy (modified policy
///     iteration), each a third to a half of a Bellman sweep's cost. It
///     runs serially, so it is bit-identical at every width; on the
///     16384-state cluster bus it takes 39 Bellman sweeps where Jacobi
///     takes 1078.
///   * kJacobi — the classic relative value iteration: th = T(h) reads
///     only the previous iterate, gain from the span bounds
///     (Puterman 8.5.5). Its sweep fans over `executor`.
///
/// The two follow different trajectories to the same fixed point: their
/// gains agree to the stopping tolerance, not bit for bit. Both return
/// the tie-robust policy of their final bias (see ViResult::policy).
enum class ViSweep { kJacobi = 0, kGaussSeidel = 1 };

struct ViOptions {
    double tolerance = 1e-10;        // on the per-sweep residual
    std::size_t max_iterations = 500000;
    /// Sweep variant. Changes result bits (within tolerance); everything
    /// below is schedule-only and never does.
    ViSweep sweep = ViSweep::kGaussSeidel;
    /// Shared execution context for the Jacobi sweeps, or nullptr for
    /// serial. Schedule-only: per-state results land in index-addressed
    /// slots and every fold is order-exact (min/max) or runs in state
    /// order, so results are bit-identical for any worker count.
    /// Excluded from SolveCache fingerprints. The Gauss–Seidel sweep
    /// ignores it.
    exec::Executor* executor = nullptr;
    /// Don't fan sweeps below this state count — chunk bookkeeping beats
    /// the arithmetic on small models. Schedule-only.
    std::size_t parallel_min_states = 1024;
};

/// Minimize long-run average cost with relative value iteration on the
/// uniformized chain. The model must have states and be unichain (a frozen
/// model already has at least one action everywhere).
[[nodiscard]] ViResult relative_value_iteration(const CtmdpModel& model,
                                                const ViOptions& options = {});

}  // namespace socbuf::ctmdp
