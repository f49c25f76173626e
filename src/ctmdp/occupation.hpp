// Occupation-measure utilities: recover x(s,a) for an arbitrary stationary
// policy, and reduce state-level measures to per-coordinate marginals. The
// sizing engine's K-switching translation is built on these marginals.
#pragma once

#include "ctmc/stationary.hpp"
#include "ctmdp/model.hpp"
#include "ctmdp/policy.hpp"
#include "linalg/matrix.hpp"

#include <cstddef>
#include <functional>
#include <vector>

namespace socbuf::ctmdp {

/// The uniformized chain `policy` induces on `model`, built straight into
/// the gather form ctmc::stationary_gauss_seidel sweeps. Only
/// policy-positive actions contribute, with probability phi(a|s) *
/// rate / lambda, where lambda = 1.05 * the max policy-positive exit rate
/// plus a margin (every self-loop stays strictly positive, so the chain
/// is aperiodic). Row t lists its incoming jumps by source state, then
/// action, then transition (append order), and stay[s] subtracts s's
/// outgoing jumps in that same order.
[[nodiscard]] ctmc::GatherChain policy_gather_chain(
    const CtmdpModel& model, const RandomizedPolicy& policy);

/// Occupation measure x(s,a) = pi(s) * phi(a|s) of a stationary policy,
/// flat-indexed by the model's pair index. pi is computed from the induced
/// CTMC (gather-form Gauss–Seidel; works for any finite unichain model).
[[nodiscard]] std::vector<double> occupation_of_policy(
    const CtmdpModel& model, const RandomizedPolicy& policy);

/// Long-run average cost of a fixed randomized policy (policy evaluation
/// via the induced CTMC's stationary distribution, to a tighter
/// tolerance than occupation_of_policy).
[[nodiscard]] double average_cost_of_policy(const CtmdpModel& model,
                                            const RandomizedPolicy& policy);

/// Marginal distribution of an integer feature of the state (e.g. "queue f
/// occupancy") under the state distribution pi. `feature(s)` must return a
/// value in [0, feature_cardinality).
[[nodiscard]] std::vector<double> state_marginal(
    const linalg::Vector& pi,
    const std::function<std::size_t(std::size_t)>& feature,
    std::size_t feature_cardinality);

/// Expected value of the marginal distribution.
[[nodiscard]] double marginal_mean(const std::vector<double>& marginal);

/// Smallest k with P(X > k) <= tail_mass (the quantile the K-switching
/// translation uses as a flow's buffer requirement). Returns the top of the
/// support if even that leaves more tail mass.
[[nodiscard]] std::size_t marginal_quantile(const std::vector<double>& marginal,
                                            double tail_mass);

}  // namespace socbuf::ctmdp
