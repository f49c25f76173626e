// Howard policy iteration for unconstrained average-cost CTMDPs
// (uniformized). Slower than value iteration per step but converges in a
// handful of policy updates; serves as an independent check of both the LP
// and the value-iteration solvers.
#pragma once

#include "ctmdp/model.hpp"
#include "ctmdp/policy.hpp"
#include "linalg/matrix.hpp"

#include <cstddef>

namespace socbuf::ctmdp {

struct PiResult {
    double gain = 0.0;
    linalg::Vector bias;
    DeterministicPolicy policy;
    std::size_t policy_updates = 0;
    bool converged = false;
};

struct PiOptions {
    std::size_t max_policy_updates = 1000;
    /// Exploit the model's banded structure in policy evaluation: the
    /// gain column is eliminated by a bordered block solve and the
    /// remaining bias system is factorized with a banded LU — O(n·bw²)
    /// per update instead of the dense O(n³). Auto-gated: the dense path
    /// still runs when the model is small or its bandwidth is too close
    /// to n for the banded factorization to win, and it takes over any
    /// evaluation whose unpivoted banded LU breaks down. The bordered
    /// solve is a different (better-conditioned-size) elimination order,
    /// so gains and biases agree with the dense path to solver tolerance,
    /// not bit for bit — which is why this knob is part of the solve
    /// fingerprint.
    bool banded_evaluation = true;
};

/// Minimize long-run average cost by policy iteration. Requires a unichain
/// model (policy evaluation solves a linear system that is singular
/// otherwise).
[[nodiscard]] PiResult policy_iteration(const CtmdpModel& model,
                                        const PiOptions& options = {});

}  // namespace socbuf::ctmdp
