#include "ctmdp/value_iteration.hpp"

#include "exec/executor.hpp"
#include "util/contracts.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

namespace socbuf::ctmdp {

namespace {

/// The state whose relative value stays 0: h(kReferenceState) = 0.
constexpr std::size_t kReferenceState = 0;

/// One run of a state's actions that share a head: consecutive actions
/// (in the model's pair order) whose per-step cost and stay probability
/// are bitwise equal. The head is the longest (target, prob) jump prefix
/// all of them share; each action keeps only its tail. The jump entries
/// are laid out group by group, head first, then each pair's tail in
/// pair order, so one index walks them front to back.
struct Group {
    double step_cost = 0.0;
    double stay = 0.0;
    std::uint32_t head_begin = 0;  // head jumps [head_begin, head_end)
    std::uint32_t head_end = 0;
    std::uint32_t pair_begin = 0;  // the group's pairs [pair_begin, pair_end)
    std::uint32_t pair_end = 0;
};

/// Precomputed uniformized model around per-state shared heads. A
/// subsystem state's actions all carry the same arrival jumps and cost
/// and differ only in the buffer they serve, so most states are one
/// group whose head holds the arrivals. The Bellman value
///     step_cost + stay * h[s] + sum_k prob_k * h[target_k]
/// is a left-to-right fold in the model's transition order, and a shared
/// head is the same leading run of operations for every action of its
/// group: folding it once and each tail onto a copy gives every action's
/// value bit for bit. The indices are 32-bit, which halves the sweep's
/// index traffic.
struct Uniformized {
    double lambda = 1.0;
    // State s owns groups [state_group[s], state_group[s + 1]).
    std::vector<std::uint32_t> state_group;
    std::vector<Group> groups;
    // Per pair p: its tail ends at tail_end[p] and starts where the
    // previous pair's tail ended, or at head_end for a group's first pair.
    std::vector<std::uint32_t> tail_end;
    std::vector<std::uint32_t> jump_target;
    std::vector<double> jump_prob;
};

/// Bitwise equality: +0.0 and -0.0 differ, so a merge never changes a bit.
bool same_bits(double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
}

Uniformized uniformize(const CtmdpModel& model) {
    SOCBUF_REQUIRE_MSG(
        std::max({model.state_count(), model.pair_count(),
                  model.transition_count()}) <=
            std::numeric_limits<std::uint32_t>::max(),
        "model too large for 32-bit jump indices");
    Uniformized u;
    // A margin keeps every self-loop probability strictly positive, which
    // makes the uniformized chain aperiodic (required for RVI convergence).
    u.lambda = std::max(model.max_exit_rate(), 1e-12) * 1.05 + 1e-9;
    const std::size_t n = model.state_count();
    const std::vector<std::size_t>& pair_offset = model.pair_offsets();
    u.state_group.reserve(n + 1);
    u.tail_end.reserve(model.pair_count());
    u.jump_target.reserve(model.transition_count());
    u.jump_prob.reserve(model.transition_count());
    // One state's pairs, uniformized: cost, stay and jumps per action.
    std::vector<double> cost, stay, prob;
    std::vector<std::uint32_t> target;
    std::vector<std::size_t> first;  // action a: [first[a], first[a + 1])
    const auto same_jump = [&](std::size_t i, std::size_t j) {
        return target[i] == target[j] && same_bits(prob[i], prob[j]);
    };
    // Appends this state's jumps [lo, hi); returns the new end offset.
    const auto append = [&](std::size_t lo, std::size_t hi) {
        u.jump_target.insert(u.jump_target.end(), target.begin() + lo,
                             target.begin() + hi);
        u.jump_prob.insert(u.jump_prob.end(), prob.begin() + lo,
                           prob.begin() + hi);
        return static_cast<std::uint32_t>(u.jump_target.size());
    };
    for (std::size_t s = 0; s < n; ++s) {
        cost.clear();
        stay.clear();
        prob.clear();
        target.clear();
        first.assign(1, 0);
        for (std::size_t p = pair_offset[s]; p < pair_offset[s + 1]; ++p) {
            cost.push_back(model.costs()[p] / u.lambda);
            double move = 0.0;
            model.for_each_jump(s, p, [&](std::size_t t, double rate) {
                target.push_back(static_cast<std::uint32_t>(t));
                prob.push_back(rate / u.lambda);
                move += rate / u.lambda;
            });
            first.push_back(target.size());
            stay.push_back(1.0 - move);
            SOCBUF_ASSERT(stay.back() > 0.0);
        }
        u.state_group.push_back(static_cast<std::uint32_t>(u.groups.size()));
        const std::size_t na = cost.size();
        for (std::size_t a = 0, b = 0; a < na; a = b) {
            // The run [a, b) and the jump prefix length its actions share.
            std::size_t head = first[a + 1] - first[a];
            for (b = a + 1; b < na && same_bits(cost[b], cost[a]) &&
                            same_bits(stay[b], stay[a]);
                 ++b) {
                std::size_t k = 0;
                while (k < head && first[b] + k < first[b + 1] &&
                       same_jump(first[a] + k, first[b] + k))
                    ++k;
                head = k;
            }
            Group g;
            g.step_cost = cost[a];
            g.stay = stay[a];
            g.head_begin = static_cast<std::uint32_t>(u.jump_target.size());
            g.head_end = append(first[a], first[a] + head);
            g.pair_begin = static_cast<std::uint32_t>(pair_offset[s] + a);
            g.pair_end = static_cast<std::uint32_t>(pair_offset[s] + b);
            for (std::size_t c = a; c < b; ++c)
                u.tail_end.push_back(append(first[c] + head, first[c + 1]));
            u.groups.push_back(g);
        }
    }
    u.state_group.push_back(static_cast<std::uint32_t>(u.groups.size()));
    return u;
}

/// Every action's explicit Bellman value at state s over `h`:
///     c/L + stay * h[s] + sum_k prob_k * h[target_k]
/// passed to visit(p, value) in the model's pair order. Each group folds
/// its head once onto c/L + stay * h[s]; each action folds its tail onto
/// a copy. Every fold runs in the model's transition order — the fold
/// order every sweep variant and thread count shares.
///
/// The kernel is bound by branches, not bytes: a cluster-bus state is
/// one group of up to seven actions whose tails are one jump each, so a
/// one-jump tail takes a straight-line step.
template <typename Visit>
inline void fold_values(const Uniformized& u, const double* const h,
                        std::size_t s, Visit&& visit) {
    const std::uint32_t* const target = u.jump_target.data();
    const double* const prob = u.jump_prob.data();
    const std::uint32_t* const tail_end = u.tail_end.data();
    const Group* g = u.groups.data() + u.state_group[s];
    const Group* const g_end = u.groups.data() + u.state_group[s + 1];
    const double hs = h[s];
    for (; g != g_end; ++g) {
        double head = g->step_cost + g->stay * hs;
        std::uint32_t k = g->head_begin;
        for (; k < g->head_end; ++k) head += prob[k] * h[target[k]];
        for (std::uint32_t p = g->pair_begin; p < g->pair_end; ++p) {
            double value = head;
            const std::uint32_t end = tail_end[p];
            if (end == k + 1) {
                value += prob[k] * h[target[k]];
                k = end;
            } else {
                for (; k < end; ++k) value += prob[k] * h[target[k]];
            }
            visit(p, value);
        }
    }
}

/// One state's explicit Bellman minimization over the values in `h`: the
/// smallest value and its pair. The first action with the strictly
/// smallest value wins. The argmin is a select rather than a
/// data-dependent jump.
inline void bellman_min(const Uniformized& u, const linalg::Vector& hv,
                        std::size_t s, double& best_out,
                        std::uint32_t& pair_out) {
    double best = std::numeric_limits<double>::infinity();
    std::uint32_t best_p = u.groups[u.state_group[s]].pair_begin;
    fold_values(u, hv.data(), s, [&](std::uint32_t p, double value) {
        const bool better = value < best;
        best = better ? value : best;
        best_p = better ? p : best_p;
    });
    best_out = best;
    pair_out = best_p;
}

/// How far above a state's minimum Bellman value an action may sit and
/// still count as tied with it, in uniformized per-step cost units.
/// Symmetric service actions tie in exact arithmetic, and rounding noise
/// in a converged h separates them by far less; real gaps between the
/// shipped models' actions are far larger (bench/README.md, "Modified
/// policy iteration and the tie rule", records the window).
constexpr double kTieTolerance = 1e-7;

/// The tie-robust policy on `h`: per state, the first action in model
/// order whose explicit Bellman value is within kTieTolerance of the
/// state's minimum. It does not depend on which sweep produced h, only
/// on h to well below the tolerance, so both sweeps return the same
/// policy wherever actions tie. A state whose values are not finite
/// keeps its strict argmin.
DeterministicPolicy tie_robust_policy(const Uniformized& u,
                                      const linalg::Vector& h) {
    const std::size_t n = h.size();
    std::vector<std::size_t> choice(n, 0);
    for (std::size_t s = 0; s < n; ++s) {
        double best = 0.0;
        std::uint32_t chosen = 0;
        bellman_min(u, h, s, best, chosen);
        const double bound = best + kTieTolerance;
        fold_values(u, h.data(), s, [&](std::uint32_t p, double value) {
            if (p < chosen && value <= bound) chosen = p;
        });
        choice[s] = chosen - u.groups[u.state_group[s]].pair_begin;
    }
    return DeterministicPolicy(std::move(choice));
}

/// One state's action under a fixed policy, located in the uniformized
/// layout: its pair (for where its tail ends), its group (for the cost,
/// stay and head) and where its tail starts.
struct PolicyRow {
    std::uint32_t pair = 0;
    std::uint32_t group = 0;
    std::uint32_t tail_begin = 0;
};

/// Locates every state's chosen pair, already in `rows[s].pair`.
void index_policy(const Uniformized& u, std::vector<PolicyRow>& rows) {
    for (std::size_t s = 0; s < rows.size(); ++s) {
        PolicyRow& row = rows[s];
        row.group = u.state_group[s];
        while (row.pair >= u.groups[row.group].pair_end) ++row.group;
        const Group& g = u.groups[row.group];
        row.tail_begin =
            row.pair == g.pair_begin ? g.head_end : u.tail_end[row.pair - 1];
    }
}

/// The explicit value of state s's action in `row` over `h`, folded as
/// fold_values folds it (cost and stay, the head, then the tail), so it
/// equals that action's Bellman value bit for bit.
inline double policy_value(const Uniformized& u, const double* const h,
                           std::size_t s, const PolicyRow& row) {
    const std::uint32_t* const target = u.jump_target.data();
    const double* const prob = u.jump_prob.data();
    const Group& g = u.groups[row.group];
    double value = g.step_cost + g.stay * h[s];
    for (std::uint32_t k = g.head_begin; k < g.head_end; ++k)
        value += prob[k] * h[target[k]];
    const std::uint32_t end = u.tail_end[row.pair];
    for (std::uint32_t k = row.tail_begin; k < end; ++k)
        value += prob[k] * h[target[k]];
    return value;
}

/// Whether every entry of `v` is finite. A sweep's min/max folds drop a
/// NaN operand, so a residual below the tolerance proves convergence
/// only once the iterate it came from is finite (and the gain too).
bool all_finite(const linalg::Vector& v) {
    return std::all_of(v.begin(), v.end(),
                       [](double x) { return std::isfinite(x); });
}

/// Fixed chunk width of every fan-out below. Chunk boundaries depend only
/// on the index range (exec::parallel_for_ranges), so the per-chunk
/// min/max partials land in fixed slots and their refold — an order-exact
/// operation — is bit-identical for any worker count, including the
/// serial body(0, whole-range) call that writes slot 0 only.
constexpr std::size_t kSweepChunk = 256;

ViResult jacobi_rvi(const CtmdpModel& model, const Uniformized& u,
                    const ViOptions& options, exec::Executor* executor) {
    const std::size_t n = model.state_count();

    linalg::Vector h(n, 0.0);
    linalg::Vector th(n, 0.0);

    const std::size_t chunks = (n + kSweepChunk - 1) / kSweepChunk;
    std::vector<double> chunk_lo(chunks), chunk_hi(chunks);
    const auto sweep = [&](std::size_t lo_s, std::size_t hi_s) {
        double lo = std::numeric_limits<double>::infinity();
        double hi = -lo;
        std::uint32_t pair = 0;  // unused: the policy is extracted at the end
        for (std::size_t s = lo_s; s < hi_s; ++s) {
            bellman_min(u, h, s, th[s], pair);
            const double d = th[s] - h[s];
            lo = std::min(lo, d);
            hi = std::max(hi, d);
        }
        chunk_lo[lo_s / kSweepChunk] = lo;
        chunk_hi[lo_s / kSweepChunk] = hi;
    };

    ViResult out;
    // The last sweep's bounds on the update delta th - h.
    double span_lo = 0.0;
    double span_hi = 0.0;
    for (std::size_t it = 0; it < options.max_iterations; ++it) {
        std::fill(chunk_lo.begin(), chunk_lo.end(),
                  std::numeric_limits<double>::infinity());
        std::fill(chunk_hi.begin(), chunk_hi.end(),
                  -std::numeric_limits<double>::infinity());
        if (executor != nullptr)
            executor->for_ranges(n, sweep, kSweepChunk);
        else
            sweep(0, n);
        // Span of the update delta bounds the gain error (Puterman 8.5.5).
        span_lo = std::numeric_limits<double>::infinity();
        span_hi = -span_lo;
        for (std::size_t c = 0; c < chunks; ++c) {
            span_lo = std::min(span_lo, chunk_lo[c]);
            span_hi = std::max(span_hi, chunk_hi[c]);
        }
        out.span_residual = span_hi - span_lo;
        out.iterations = it + 1;
        if (out.span_residual < options.tolerance) {
            // stay > 0 carries a non-finite h[s] into th[s].
            out.converged = all_finite(th);
            break;
        }
        // Relative normalization keeps h bounded. It stays serial even
        // when the sweep fans out: one subtraction per state costs less
        // than a second fan-out per sweep.
        const double ref = th[kReferenceState];
        for (std::size_t s = 0; s < n; ++s) h[s] = th[s] - ref;
    }
    // The midpoint of the last sweep's span: the converged gain, or the
    // best estimate anyway (the caller can inspect `converged`). An
    // unconverged run has already normalized h = th - th[ref], so the
    // bounds must come from the sweep, not from th - h afterwards.
    out.gain = 0.5 * (span_hi + span_lo) * u.lambda;
    out.converged = out.converged && std::isfinite(out.gain);
    out.bellman_sweeps = out.iterations;
    out.policy = tie_robust_policy(u, h);
    out.bias = std::move(h);
    return out;
}

/// Evaluation sweeps after each unconverged Bellman sweep. Each costs a
/// third to a half of a Bellman sweep on the cluster buses; 32 measured
/// the same as 16 (bench/README.md).
constexpr std::size_t kEvaluationSweeps = 16;

/// In-place Gauss–Seidel relative value iteration, reference-pinned
/// (White's relative method), accelerated as modified policy iteration
/// (Puterman & Shin).
///
/// Each Bellman sweep first fixes the gain estimate
///   g = min_a [ c(ref,a)/L + stay * h(ref) + sum_t P(t|ref,a) h(t) ]
/// — the explicit Bellman value at the reference state on the pre-sweep
/// h — and then walks the states in natural order, writing
///   h(s) <- min_a [explicit value at s] - g
/// in place, so each state reads the values already updated in the same
/// sweep. The reference state is state 0, the first one walked, so its
/// value is g itself and h(ref) = g - g = 0 exactly, every sweep. At a
/// fixed point T(h) = h + g — the average-cost optimality equation — so
/// g * lambda is the optimal gain and h the bias with h(ref) = 0.
///
/// A Bellman sweep that has not converged is followed by
/// kEvaluationSweeps sweeps of the same in-place form for its greedy
/// policy alone: the reference state's policy value is the gain
/// estimate, and each state folds its head and its one chosen tail
/// instead of every action's. Convergence is tested on Bellman sweeps
/// only, with max|dh| and |dg| measured against the iterate and gain
/// estimate of the sweep before, whichever kind it was.
///
/// The explicit form matters: solving each action's self-loop out (the
/// implicit update) cuts sweeps further but diverges on small chains, and
/// so does over-relaxation. The sweep is one serial pass, so its result
/// is the same at every width.
ViResult gauss_seidel_rvi(const CtmdpModel& model, const Uniformized& u,
                          const ViOptions& options) {
    static_assert(kReferenceState == 0,
                  "the reference state must be walked first");
    const std::size_t n = model.state_count();
    linalg::Vector h(n, 0.0);
    // The last Bellman sweep's greedy policy; freed before the extraction
    // allocates the returned one.
    std::vector<PolicyRow> rows(n);

    ViResult out;
    double g = 0.0;
    double g_prev = std::numeric_limits<double>::infinity();
    while (out.iterations < options.max_iterations) {
        // The reference state's step is the gain estimate; h(ref) stays 0.
        bellman_min(u, h, kReferenceState, g, rows[kReferenceState].pair);
        double delta = 0.0;
        for (std::size_t s = kReferenceState + 1; s < n; ++s) {
            double value = 0.0;
            bellman_min(u, h, s, value, rows[s].pair);
            const double next = value - g;
            delta = std::max(delta, std::fabs(next - h[s]));
            h[s] = next;
        }
        delta = std::max(delta, std::fabs(g - g_prev));
        g_prev = g;
        out.span_residual = delta;
        ++out.iterations;
        ++out.bellman_sweeps;
        // A non-finite gain never settles: stop, unconverged.
        if (!std::isfinite(g)) break;
        if (delta < options.tolerance) {
            out.converged = all_finite(h);
            break;
        }
        index_policy(u, rows);
        for (std::size_t e = 0; e < kEvaluationSweeps &&
                                out.iterations < options.max_iterations;
             ++e, ++out.iterations) {
            const double ge = policy_value(u, h.data(), kReferenceState,
                                           rows[kReferenceState]);
            for (std::size_t s = kReferenceState + 1; s < n; ++s)
                h[s] = policy_value(u, h.data(), s, rows[s]) - ge;
            g_prev = ge;
        }
    }
    std::vector<PolicyRow>().swap(rows);
    out.gain = g * u.lambda;
    out.converged = out.converged && std::isfinite(out.gain);
    out.policy = tie_robust_policy(u, h);
    out.bias = std::move(h);
    return out;
}

}  // namespace

ViResult relative_value_iteration(const CtmdpModel& model,
                                  const ViOptions& options) {
    if (model.state_count() == 0) throw util::ModelError("CTMDP has no states");
    const Uniformized u = uniformize(model);
    if (options.sweep == ViSweep::kGaussSeidel)
        return gauss_seidel_rvi(model, u, options);
    // The fan gate: a serial executor or a small model runs the exact
    // serial loop (one chunk), so "no executor" and "executor with one
    // worker" share the code path with any-width runs byte for byte.
    exec::Executor* executor =
        (options.executor != nullptr && !options.executor->serial() &&
         model.state_count() >= options.parallel_min_states)
            ? options.executor
            : nullptr;
    return jacobi_rvi(model, u, options, executor);
}

}  // namespace socbuf::ctmdp
