#include "ctmdp/solver.hpp"

#include "ctmdp/occupation.hpp"
#include "util/contracts.hpp"
#include "util/log.hpp"

#include <string>
#include <utility>

namespace socbuf::ctmdp {

const char* to_string(SolverKind kind) {
    switch (kind) {
        case SolverKind::kLp: return "lp";
        case SolverKind::kValueIteration: return "value-iteration";
        case SolverKind::kPolicyIteration: return "policy-iteration";
    }
    return "?";
}

namespace {

constexpr double kSwitchingTolerance = 1e-9;

/// Shared tail of the two deterministic-policy solvers: lift the policy,
/// recover the occupation measure and the stationary distribution it
/// implies.
SubsystemSolution from_deterministic(const CtmdpModel& model,
                                     const DeterministicPolicy& policy,
                                     double gain, linalg::Vector bias,
                                     std::size_t iterations, bool converged,
                                     SolverKind kind) {
    SubsystemSolution out;
    out.gain = gain;
    out.bias = std::move(bias);
    out.iterations = iterations;
    out.policy = RandomizedPolicy::from_deterministic(policy, model);
    out.occupation = occupation_of_policy(model, out.policy);
    const auto& pair_offset = model.pair_offsets();
    out.stationary.assign(model.state_count(), 0.0);
    for (std::size_t s = 0; s < model.state_count(); ++s)
        for (std::size_t p = pair_offset[s]; p < pair_offset[s + 1]; ++p)
            out.stationary[s] += out.occupation[p];
    out.switching_states = 0;  // deterministic policies never randomize
    out.solved_by = kind;
    out.converged = converged;
    return out;
}

class LpSolver final : public AverageCostSolver {
public:
    [[nodiscard]] SolverKind kind() const override { return SolverKind::kLp; }
    [[nodiscard]] const char* name() const override {
        return "occupation-measure LP (Feinberg)";
    }
    [[nodiscard]] SubsystemSolution solve(
        const CtmdpModel& model,
        const SolverOptions& /*options*/) const override {
        const auto r = solve_average_cost_lp(model);
        if (r.status != lp::SolveStatus::kOptimal)
            throw util::NumericalError(
                "subsystem LP did not reach optimality: " +
                std::string(lp::to_string(r.status)));
        SubsystemSolution out;
        out.gain = r.average_cost;
        out.stationary.assign(r.state_probability.begin(),
                              r.state_probability.end());
        out.occupation = r.occupation;
        out.policy = r.policy;
        out.switching_states =
            r.policy.switching_state_count(kSwitchingTolerance);
        out.iterations = r.simplex_iterations;
        out.solved_by = SolverKind::kLp;
        out.converged = true;
        return out;
    }
};

class ValueIterationSolver final : public AverageCostSolver {
public:
    [[nodiscard]] SolverKind kind() const override {
        return SolverKind::kValueIteration;
    }
    [[nodiscard]] const char* name() const override {
        return "relative value iteration";
    }
    [[nodiscard]] SubsystemSolution solve(
        const CtmdpModel& model,
        const SolverOptions& options) const override {
        const auto vi = relative_value_iteration(model, options.vi);
        if (!vi.converged)
            util::log(util::LogLevel::kWarn,
                      "value iteration hit the iteration limit (span ",
                      vi.span_residual, "); using the last policy");
        return from_deterministic(model, vi.policy, vi.gain, vi.bias,
                                  vi.iterations, vi.converged,
                                  SolverKind::kValueIteration);
    }
};

class PolicyIterationSolver final : public AverageCostSolver {
public:
    [[nodiscard]] SolverKind kind() const override {
        return SolverKind::kPolicyIteration;
    }
    [[nodiscard]] const char* name() const override {
        return "Howard policy iteration";
    }
    [[nodiscard]] SubsystemSolution solve(
        const CtmdpModel& model,
        const SolverOptions& options) const override {
        const auto pi = policy_iteration(model, options.pi);
        if (!pi.converged)
            util::log(util::LogLevel::kWarn,
                      "policy iteration hit the update limit; using the ",
                      "last policy");
        return from_deterministic(model, pi.policy, pi.gain, pi.bias,
                                  pi.policy_updates, pi.converged,
                                  SolverKind::kPolicyIteration);
    }
};

/// The kAuto escalation order; also the failure-fallback chain.
constexpr SolverKind kEscalation[] = {SolverKind::kLp,
                                      SolverKind::kPolicyIteration,
                                      SolverKind::kValueIteration};

}  // namespace

std::unique_ptr<AverageCostSolver> make_solver(SolverKind kind) {
    switch (kind) {
        case SolverKind::kLp: return std::make_unique<LpSolver>();
        case SolverKind::kValueIteration:
            return std::make_unique<ValueIterationSolver>();
        case SolverKind::kPolicyIteration:
            return std::make_unique<PolicyIterationSolver>();
    }
    throw util::ContractViolation("unknown solver kind");
}

SolverRegistry::SolverRegistry() {
    for (const auto kind :
         {SolverKind::kLp, SolverKind::kValueIteration,
          SolverKind::kPolicyIteration})
        solvers_[static_cast<std::size_t>(kind)] = make_solver(kind);
}

const AverageCostSolver& SolverRegistry::get(SolverKind kind) const {
    return *solvers_[static_cast<std::size_t>(kind)];
}

SolverKind SolverRegistry::select(const CtmdpModel& model,
                                  const DispatchOptions& options) const {
    switch (options.choice) {
        case SolverChoice::kLp: return SolverKind::kLp;
        case SolverChoice::kValueIteration:
            return SolverKind::kValueIteration;
        case SolverChoice::kPolicyIteration:
            return SolverKind::kPolicyIteration;
        case SolverChoice::kAuto: break;
    }
    if (model.pair_count() <= options.lp_pair_limit) return SolverKind::kLp;
    if (model.state_count() <= options.pi_state_limit)
        return SolverKind::kPolicyIteration;
    return SolverKind::kValueIteration;
}

SubsystemSolution SolverRegistry::solve(const CtmdpModel& model,
                                        const DispatchOptions& options) {
    const SolverKind first = select(model, options);
    if (options.choice != SolverChoice::kAuto) {
        // Forced choice: no fallback, errors propagate to the caller.
        SubsystemSolution out = get(first).solve(model, options.solver);
        record(out);
        return out;
    }
    // kAuto: walk the LP -> PI -> VI chain starting at the selected rung;
    // a failed or unconverged rung escalates to the next one.
    std::size_t rung = 0;
    while (kEscalation[rung] != first) ++rung;
    constexpr std::size_t kLast =
        sizeof(kEscalation) / sizeof(kEscalation[0]) - 1;
    for (;; ++rung) {
        const AverageCostSolver& solver = get(kEscalation[rung]);
        try {
            SubsystemSolution out = solver.solve(model, options.solver);
            if (out.converged || rung == kLast) {
                record(out);
                return out;
            }
            util::log(util::LogLevel::kWarn, solver.name(),
                      " did not converge; escalating to ",
                      get(kEscalation[rung + 1]).name());
        } catch (const util::NumericalError& error) {
            if (rung == kLast) throw;
            util::log(util::LogLevel::kWarn, solver.name(), " failed (",
                      error.what(), "); escalating to ",
                      get(kEscalation[rung + 1]).name());
        }
    }
}

SolverStatsSnapshot SolverRegistry::stats() const {
    SolverStatsSnapshot out;
    out.lp_solves = lp_solves_.load();
    out.vi_solves = vi_solves_.load();
    out.pi_solves = pi_solves_.load();
    out.switching_states = switching_states_.load();
    return out;
}

void SolverRegistry::reset_stats() {
    lp_solves_.store(0);
    vi_solves_.store(0);
    pi_solves_.store(0);
    switching_states_.store(0);
}

void SolverRegistry::record(const SubsystemSolution& solution) {
    switch (solution.solved_by) {
        case SolverKind::kLp: ++lp_solves_; break;
        case SolverKind::kValueIteration: ++vi_solves_; break;
        case SolverKind::kPolicyIteration: ++pi_solves_; break;
    }
    switching_states_ += solution.switching_states;
}

}  // namespace socbuf::ctmdp
