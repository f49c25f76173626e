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
    DeterministicPolicy policy;   // greedy optimal policy
    std::size_t iterations = 0;
    double span_residual = 0.0;   // final span of the Bellman update delta
    bool converged = false;
};

/// Which sweep the iteration runs.
///
///   * kJacobi — the classic relative value iteration: th = T(h) reads
///     only the previous iterate, gain from the span bounds
///     (Puterman 8.5.5). The reference rung; its results are the
///     bit-identity contract every report pins against.
///   * kGaussSeidel — red-black accelerated sweep: states are split by
///     parity, the half containing the reference state updates first
///     from the old iterate, the other half then reads the *updated*
///     first half (and the old second half). Reusing fresh values within
///     a sweep roughly halves the iteration count on the birth-death-like
///     buffer chains, but follows a different trajectory — the gain
///     agrees with Jacobi to the stopping tolerance, not bit for bit, so
///     the knob is opt-in.
enum class ViSweep { kJacobi = 0, kGaussSeidel = 1 };

struct ViOptions {
    double tolerance = 1e-10;        // on the per-step gain bounds
    std::size_t max_iterations = 500000;
    /// Sweep variant. kGaussSeidel changes result bits (within
    /// tolerance); everything below is schedule-only and never does.
    ViSweep sweep = ViSweep::kJacobi;
    /// Shared execution context for the Bellman sweeps, or nullptr for
    /// serial. Schedule-only: per-state results land in index-addressed
    /// slots and every fold is order-exact (min/max) or runs in state
    /// order, so results are bit-identical for any worker count.
    /// Excluded from SolveCache fingerprints.
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

/// Long-run average cost of a fixed randomized policy (policy evaluation
/// via the induced CTMC's stationary distribution, gather-form power
/// iteration). The sweep fans over `executor` on large chains —
/// schedule-only, bit-identical for any worker count.
[[nodiscard]] double average_cost_of_policy(const CtmdpModel& model,
                                            const RandomizedPolicy& policy,
                                            exec::Executor* executor =
                                                nullptr);

}  // namespace socbuf::ctmdp
