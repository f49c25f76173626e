#include "ctmdp/value_iteration.hpp"

#include "ctmc/stationary.hpp"
#include "ctmdp/occupation.hpp"
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

/// The walk both Bellman kernels share: one state's minimization over
/// the values in `h`. Each group folds its head once onto
/// `start(group)`; each action folds its tail onto a copy, and
/// `finish(group, value)` turns the sum into the action's value. The
/// action scan and every fold run in the model's pair and transition
/// order — the fold order every sweep variant and thread count shares —
/// and the first action with the strictly smallest value wins.
///
/// The kernel is bound by branches, not bytes: a cluster-bus state is
/// one group of up to seven actions whose tails are one jump each, so
/// the argmin is a select rather than a data-dependent jump, and a
/// one-jump tail takes a straight-line step.
template <class Start, class Finish>
inline void bellman_fold(const Uniformized& u, const linalg::Vector& hv,
                         std::size_t s, Start start, Finish finish,
                         double& best_out, std::size_t& action_out) {
    const double* const h = hv.data();
    const std::uint32_t* const target = u.jump_target.data();
    const double* const prob = u.jump_prob.data();
    const std::uint32_t* const tail_end = u.tail_end.data();
    const Group* g = u.groups.data() + u.state_group[s];
    const Group* const g_end = u.groups.data() + u.state_group[s + 1];
    const std::uint32_t p0 = g->pair_begin;
    double best = std::numeric_limits<double>::infinity();
    std::uint32_t best_p = p0;
    for (; g != g_end; ++g) {
        double head = start(*g);
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
            value = finish(*g, value);
            const bool better = value < best;
            best = better ? value : best;
            best_p = better ? p : best_p;
        }
    }
    best_out = best;
    action_out = best_p - p0;
}

/// One state's explicit Bellman minimization:
///     min_a  c/L + stay * h[s] + sum_k prob_k * h[target_k]
inline void bellman_min(const Uniformized& u, const linalg::Vector& h,
                        std::size_t s, double& best_out,
                        std::size_t& action_out) {
    const double hs = h[s];
    bellman_fold(
        u, h, s,
        [hs](const Group& g) { return g.step_cost + g.stay * hs; },
        [](const Group&, double value) { return value; }, best_out,
        action_out);
}

/// Bellman minimization with the action's self-loop solved out — the
/// Gauss–Seidel step of Puterman §8.5.4, in candidate-bias form. For a
/// gain estimate g, each action's optimality equation
///     g + h(s) = c/L + stay * h(s) + sum_{t != s} P(t|s,a) v(t)
/// is solved exactly for h(s):
///     h_a = (c/L + sum_{t != s} P(t|s,a) v(t) - g) / (1 - stay)
/// — the value a plain sweep only reaches in the stay-probability limit.
/// Since th_a = h_a + g, the minimization is over the same ordering as
/// the explicit update's around the fixed point: h_a is the explicit
/// residual scaled by 1/(1 - stay) > 0, so the argmin set and the fixed
/// point are unchanged; only the approach is faster. The uniformization
/// margin makes `stay` large exactly for low-exit states, which is where
/// the acceleration pays. Degenerate all-self-loop actions (stay == 1)
/// fall back to the explicit update. The numerator folds the group's
/// head once, as bellman_min does. Returns h_a, not th_a.
inline void bellman_min_implicit(const Uniformized& u,
                                 const linalg::Vector& h, std::size_t s,
                                 double gain, double& best_out,
                                 std::size_t& action_out) {
    const double hs = h[s];
    bellman_fold(
        u, h, s, [](const Group& g) { return g.step_cost; },
        [hs, gain](const Group& g, double value) {
            const double move = 1.0 - g.stay;
            return move > 1e-12 ? (value - gain) / move
                                : value + g.stay * hs - gain;
        },
        best_out, action_out);
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
    std::vector<std::size_t> greedy(n, 0);

    const std::size_t chunks = (n + kSweepChunk - 1) / kSweepChunk;
    std::vector<double> chunk_lo(chunks), chunk_hi(chunks);
    const auto sweep = [&](std::size_t lo_s, std::size_t hi_s) {
        double lo = std::numeric_limits<double>::infinity();
        double hi = -lo;
        for (std::size_t s = lo_s; s < hi_s; ++s) {
            bellman_min(u, h, s, th[s], greedy[s]);
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
            out.converged = true;
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
    out.bias = h;
    out.policy = DeterministicPolicy(std::move(greedy));
    return out;
}

/// Red-black Gauss–Seidel relative value iteration, reference-pinned.
///
/// Naively normalizing a Gauss–Seidel sweep the way the Jacobi loop does
/// (subtract th[ref] at the end) converges to a fixed point whose gain is
/// NOT the optimal average cost — mixing old and new values shifts the
/// invariant. The correct scheme pins h(ref) = 0 and subtracts the gain
/// estimate inside the sweep (White's relative method):
///
///   g = min_a [ c(ref,a)/L + sum_t P(t|ref,a) h_old(t) ]
///       — the explicit Bellman value at the pinned reference state
///       (h_old(ref) = 0), fixed for the whole sweep *before* any state
///       updates: feeding g through ref's own implicit update would
///       amplify the gain error by stay/(1 - stay) > 1 and oscillate
///   phase 1 (states with the reference state's parity, ref included):
///       h_new(s) = min_a implicit(s, a, h_old, g)   — see
///               bellman_min_implicit: the self-loop is solved out; at
///               ref the minimizing numerator is g - g = 0 bit-exactly,
///               so h_new(ref) = 0 exactly, every sweep
///   phase 2 (the other parity):
///       h_new(s) = min_a implicit(s, a, v, g),
///           v(t) = phase-1 parity ? h_new(t) : h_old(t)
///
/// At a fixed point h = h_new, both phases reduce to T(h) = h + g — the
/// average-cost optimality equation — so g * lambda is the optimal gain
/// and h the bias with h(ref) = 0.
///
/// Parity is *not* a two-coloring of these models (same-parity jumps
/// exist), so each phase is Jacobi within itself: compute every th from a
/// pre-phase snapshot, then write. That makes the sweep deterministic for
/// any worker count — the in-place speedup comes only from phase 2
/// reading phase 1's results.
ViResult gauss_seidel_rvi(const CtmdpModel& model, const Uniformized& u,
                          const ViOptions& options,
                          exec::Executor* executor) {
    const std::size_t n = model.state_count();
    const std::size_t ref_parity = kReferenceState % 2;

    std::vector<std::size_t> phase1;
    std::vector<std::size_t> phase2;
    phase1.reserve((n + 1) / 2);
    phase2.reserve(n / 2);
    for (std::size_t s = 0; s < n; ++s)
        (s % 2 == ref_parity ? phase1 : phase2).push_back(s);

    linalg::Vector h(n, 0.0);
    linalg::Vector th(n, 0.0);
    std::vector<std::size_t> greedy(n, 0);

    const std::size_t max_phase = std::max(phase1.size(), phase2.size());
    const std::size_t chunks =
        max_phase == 0 ? 1 : (max_phase + kSweepChunk - 1) / kSweepChunk;
    std::vector<double> chunk_delta(chunks, 0.0);
    const auto fan = [&](std::size_t count,
                         const std::function<void(std::size_t, std::size_t)>&
                             body) {
        if (executor != nullptr)
            executor->for_ranges(count, body, kSweepChunk);
        else if (count > 0)
            body(0, count);
    };

    ViResult out;
    double g = 0.0;
    double g_prev = std::numeric_limits<double>::infinity();
    for (std::size_t it = 0; it < options.max_iterations; ++it) {
        // The sweep's gain estimate: the explicit Bellman value at the
        // pinned reference state, from the pre-sweep h alone.
        std::size_t ref_action = 0;
        bellman_min(u, h, kReferenceState, g, ref_action);
        // Phase 1 Bellman: reads only the pre-sweep h and g; th holds
        // the candidate bias (bellman_min_implicit returns h_a directly).
        fan(phase1.size(), [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                const std::size_t s = phase1[i];
                bellman_min_implicit(u, h, s, g, th[s], greedy[s]);
            }
        });
        // Phase 1 write-back: h(s) <- candidate, tracking the sup-norm
        // step per chunk (max folds are order-exact).
        std::fill(chunk_delta.begin(), chunk_delta.end(), 0.0);
        fan(phase1.size(), [&](std::size_t lo, std::size_t hi) {
            double local = 0.0;
            for (std::size_t i = lo; i < hi; ++i) {
                const std::size_t s = phase1[i];
                local = std::max(local, std::fabs(th[s] - h[s]));
                h[s] = th[s];
            }
            chunk_delta[lo / kSweepChunk] =
                std::max(chunk_delta[lo / kSweepChunk], local);
        });
        double delta = 0.0;
        for (const double d : chunk_delta) delta = std::max(delta, d);
        // Phase 2 Bellman: h now mixes updated phase-1 and old phase-2
        // values — the Gauss–Seidel read — and is constant through the
        // phase (phase 2 writes only after its own barrier).
        fan(phase2.size(), [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                const std::size_t s = phase2[i];
                bellman_min_implicit(u, h, s, g, th[s], greedy[s]);
            }
        });
        std::fill(chunk_delta.begin(), chunk_delta.end(), 0.0);
        fan(phase2.size(), [&](std::size_t lo, std::size_t hi) {
            double local = 0.0;
            for (std::size_t i = lo; i < hi; ++i) {
                const std::size_t s = phase2[i];
                local = std::max(local, std::fabs(th[s] - h[s]));
                h[s] = th[s];
            }
            chunk_delta[lo / kSweepChunk] =
                std::max(chunk_delta[lo / kSweepChunk], local);
        });
        for (const double d : chunk_delta) delta = std::max(delta, d);

        delta = std::max(delta, std::fabs(g - g_prev));
        g_prev = g;
        out.span_residual = delta;
        out.iterations = it + 1;
        if (delta < options.tolerance) {
            out.converged = true;
            break;
        }
    }
    out.gain = g * u.lambda;
    out.bias = h;  // h(ref) = 0 exactly: th(ref) - g == 0 by construction
    out.policy = DeterministicPolicy(std::move(greedy));
    return out;
}

}  // namespace

ViResult relative_value_iteration(const CtmdpModel& model,
                                  const ViOptions& options) {
    if (model.state_count() == 0) throw util::ModelError("CTMDP has no states");
    const Uniformized u = uniformize(model);
    // The fan gate: a serial executor or a small model runs the exact
    // serial loop (one chunk), so "no executor" and "executor with one
    // worker" share the code path with any-width runs byte for byte.
    exec::Executor* executor =
        (options.executor != nullptr && !options.executor->serial() &&
         model.state_count() >= options.parallel_min_states)
            ? options.executor
            : nullptr;
    if (options.sweep == ViSweep::kGaussSeidel)
        return gauss_seidel_rvi(model, u, options, executor);
    return jacobi_rvi(model, u, options, executor);
}

double average_cost_of_policy(const CtmdpModel& model,
                              const RandomizedPolicy& policy,
                              exec::Executor* executor) {
    const linalg::Vector pi = ctmc::stationary_power_gather(
        policy_gather_chain(model, policy), 1e-12, 500000, executor);
    double cost = 0.0;
    for (std::size_t s = 0; s < model.state_count(); ++s) {
        for (std::size_t a = 0; a < policy.action_count(s); ++a)
            cost += pi[s] * policy.probability(s, a) *
                    model.costs()[model.pair_index(s, a)];
    }
    return cost;
}

}  // namespace socbuf::ctmdp
