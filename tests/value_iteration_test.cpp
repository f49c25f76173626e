// The scaled VI rung: executor-fanned Jacobi sweeps must be bit-identical
// to the serial loop at every worker count (the determinism contract each
// report pins against), the default in-place Gauss–Seidel sweep must
// agree with Jacobi to tolerance while cutting the sweep count, both
// sweeps must resolve exact ties to the same policy, and the
// SolveCache fingerprint must key on the sweep variant but never on the
// schedule-only knobs (executor, parallel_min_states). The golden pins
// hold VI's and the stationary pass's output bits fixed across versions.
#include "arch/presets.hpp"
#include "core/modulated_model.hpp"
#include "core/subsystem_model.hpp"
#include "ctmdp/occupation.hpp"
#include "ctmdp/solve_cache.hpp"
#include "ctmdp/solver.hpp"
#include "ctmdp/value_iteration.hpp"
#include "exec/executor.hpp"
#include "split/splitter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <ios>
#include <iterator>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace sm = socbuf::ctmdp;

namespace {

/// Every figure1 subsystem as a CTMDP at the given per-flow cap.
std::vector<socbuf::core::SubsystemCtmdp> figure1_subsystems(long cap) {
    static const auto sys = socbuf::arch::figure1_system();
    static const auto split = socbuf::split::split_architecture(sys);
    std::vector<socbuf::core::SubsystemCtmdp> models;
    for (const auto& sub : split.subsystems) {
        std::vector<long> caps(sub.flows.size(), cap);
        std::vector<double> rates;
        for (const auto& f : sub.flows) rates.push_back(f.arrival_rate);
        models.emplace_back(sub, caps, rates);
    }
    return models;
}

/// The np-cluster-scaling ingress bus as a CTMDP — the wide-band family
/// whose state count is (cap + 1)^(pe + 1); pe = 6, cap = 2 gives the
/// 2187-state model the Gauss–Seidel pins run on. Returned by value (the
/// split it is built from is a local).
sm::CtmdpModel np_ingress_model(std::size_t pe, long cap) {
    socbuf::arch::NetworkProcessorParams params;
    params.pe_per_cluster = pe;
    const auto sys = socbuf::arch::network_processor_system(params);
    const auto split = socbuf::split::split_architecture(sys);
    const socbuf::split::Subsystem* bus = nullptr;
    for (const auto& sub : split.subsystems)
        if (sub.bus_name == "ingress") bus = &sub;
    std::vector<long> caps(bus->flows.size(), cap);
    std::vector<double> rates;
    for (const auto& f : bus->flows) rates.push_back(f.arrival_rate);
    return socbuf::core::SubsystemCtmdp(*bus, caps, rates).model();
}

/// Figure 1's bus b: the bus with a bursty flow.
const socbuf::split::Subsystem& figure1_bus_b() {
    static const auto sys = socbuf::arch::figure1_system();
    static const auto split = socbuf::split::split_architecture(sys);
    for (const auto& sub : split.subsystems)
        if (sub.bus_name == "b") return sub;
    throw std::logic_error("bus b missing");
}

/// A six-state model with one Bellman-kernel layout case per state:
///   s0 — every action has the same cost and stay and a common jump
///        prefix, so all three share one head;
///   s1 — per-action costs differ;
///   s2 — same cost and stay, but the first jumps differ (empty head);
///   s3 — one action's jumps are a strict prefix of the other's (their
///        stays differ, so each keeps its own head);
///   s4 — a single action;
///   s5 — costs +0.0 and -0.0, which must not count as equal.
sm::CtmdpModel head_cases_model() {
    sm::CtmdpBuilder b(6);
    b.add_action(0, {{1, 1.0}, {2, 0.5}, {3, 0.25}}, 1.0);
    b.add_action(0, {{1, 1.0}, {2, 0.5}, {4, 0.25}}, 1.0);
    b.add_action(0, {{1, 1.0}, {2, 0.5}, {5, 0.25}}, 1.0);
    b.add_action(1, {{0, 1.0}, {2, 1.0}}, 2.0);
    b.add_action(1, {{0, 1.0}, {3, 1.0}}, 0.5);
    b.add_action(2, {{0, 0.75}, {3, 1.25}}, 1.5);
    b.add_action(2, {{4, 0.75}, {3, 1.25}}, 1.5);
    b.add_action(3, {{0, 1.0}, {1, 0.5}}, 0.25);
    b.add_action(3, {{0, 1.0}, {1, 0.5}, {5, 2.0}}, 0.25);
    b.add_action(4, {{5, 1.5}, {0, 0.5}}, 3.0);
    b.add_action(5, {{0, 2.0}, {4, 1.0}}, 0.0);
    b.add_action(5, {{0, 2.0}, {4, 1.0}}, -0.0);
    return std::move(b).freeze();
}

/// 64-bit FNV-1a over raw bytes, continuing from `hash`.
std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
        hash ^= p[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/// FNV-1a over the bias bytes.
std::uint64_t bias_digest(const sm::ViResult& r) {
    return fnv1a(0xcbf29ce484222325ULL, r.bias.data(),
                 r.bias.size() * sizeof(double));
}

/// FNV-1a over the policy's choice bytes.
std::uint64_t policy_digest(const sm::ViResult& r) {
    const auto& choices = r.policy.choices();
    return fnv1a(0xcbf29ce484222325ULL, choices.data(),
                 choices.size() * sizeof(std::size_t));
}

void expect_bit_identical(const sm::ViResult& a, const sm::ViResult& b) {
    EXPECT_EQ(a.gain, b.gain);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.bellman_sweeps, b.bellman_sweeps);
    EXPECT_EQ(a.span_residual, b.span_residual);
    EXPECT_EQ(a.bias, b.bias);
    EXPECT_EQ(a.policy.choices(), b.policy.choices());
}

/// Bitwise equality: +0.0 and -0.0 differ.
bool same_bits(double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/// A random model whose Bellman layout is irregular on purpose. Every
/// state has one to three runs of actions that share a cost and a stay
/// probability (the kernel's groups), each with a head of one to four
/// jumps, and one of two tail kinds:
///   * exact tails: one, two or three jumps whose probabilities sum to
///     the same power of two, so the stay probabilities remain bit-equal;
///   * absorbed tails: zero to three jumps of probability 2^-60, below
///     half an ulp of the head's exit probability, so the stay does not
///     move and the values mostly tie.
/// Some groups repeat their last action (a tie within the group), and
/// some states end with a repeat of their first action under the same
/// cost or the other signed zero (a tie across groups). Every jump
/// probability is a power of two: a pin action in state 0 fixes the
/// uniformization rate, and each rate is a power of two times it.
sm::CtmdpModel irregular_model(std::uint64_t seed, std::size_t n) {
    std::mt19937_64 rng(seed);
    const auto pick = [&](std::size_t k) {
        return std::uniform_int_distribution<std::size_t>(0, k - 1)(rng);
    };
    constexpr double kPinRate = 8.0;  // above every other exit rate
    const double lambda = kPinRate * 1.05 + 1e-9;
    const auto jump = [&](std::size_t s, int log2_prob) {
        const std::size_t t = (s + 1 + pick(n - 1)) % n;  // never s
        return sm::Transition{t, std::ldexp(lambda, log2_prob)};
    };
    const double costs[] = {0.0, -0.0, 0.5, 1.0, 2.0};
    using Jumps = std::vector<sm::Transition>;
    sm::CtmdpBuilder b(n);
    b.add_action(0, {{1, kPinRate}}, 1.0);
    for (std::size_t s = 0; s < n; ++s) {
        double cost = costs[pick(5)];
        Jumps first;
        double first_cost = 0.0;
        const std::size_t groups = 1 + pick(3);
        for (std::size_t g = 0; g < groups; ++g) {
            double next = cost;
            while (same_bits(next, cost)) next = costs[pick(5)];
            cost = next;
            Jumps head;
            for (std::size_t k = 1 + pick(4); k > 0; --k)
                head.push_back(jump(s, -3 - static_cast<int>(pick(4))));
            const bool exact = pick(2) == 0;
            Jumps action;
            for (std::size_t a = 2 + pick(3); a > 0; --a) {
                action = head;
                if (exact) {
                    // Three ways to spend 2^-4.
                    static const std::vector<int> splits[] = {
                        {-4}, {-5, -5}, {-5, -6, -6}};
                    for (const int e : splits[pick(3)])
                        action.push_back(jump(s, e));
                } else {
                    for (std::size_t k = pick(4); k > 0; --k)
                        action.push_back(jump(s, -60));
                }
                b.add_action(s, action, cost);
                if (first.empty()) {
                    first = action;
                    first_cost = cost;
                }
            }
            if (pick(2) == 0) b.add_action(s, action, cost);
        }
        if (pick(2) == 0)
            b.add_action(s, first,
                         first_cost == 0.0 ? -first_cost : first_cost);
    }
    return std::move(b).freeze();
}

/// The uniformized per-pair quantities, recomputed the naive way: the
/// cost and stay of every pair, and its jumps in transition order.
struct NaivePair {
    double cost = 0.0;
    double stay = 1.0;
    std::vector<std::pair<std::size_t, double>> jumps;  // (target, prob)
};

std::vector<std::vector<NaivePair>> naive_pairs(const sm::CtmdpModel& m,
                                                double lambda) {
    std::vector<std::vector<NaivePair>> out(m.state_count());
    for (std::size_t s = 0; s < m.state_count(); ++s) {
        for (std::size_t a = 0; a < m.action_count(s); ++a) {
            const std::size_t p = m.pair_index(s, a);
            NaivePair pair;
            pair.cost = m.costs()[p] / lambda;
            double move = 0.0;
            m.for_each_jump(s, p, [&](std::size_t t, double rate) {
                pair.jumps.emplace_back(t, rate / lambda);
                move += rate / lambda;
            });
            pair.stay = 1.0 - move;
            out[s].push_back(std::move(pair));
        }
    }
    return out;
}

/// Layout shapes the irregular models must reach: states with several
/// groups, groups mixing tails of 0, 1 and 2+ jumps, and bit-equal
/// action values at the running minimum, within a group and across
/// groups (counted by the reference sweep).
struct Shapes {
    std::size_t multi_group_states = 0;
    std::size_t mixed_tail_groups = 0;
    std::size_t ties_within_group = 0;
    std::size_t ties_across_groups = 0;
};

/// The group of every action of state s, by the kernel's rule: a run of
/// consecutive actions with bit-equal cost and stay. Counts the shapes.
std::vector<std::size_t> group_of_actions(const std::vector<NaivePair>& acts,
                                          Shapes& shapes) {
    std::vector<std::size_t> group(acts.size(), 0);
    std::size_t groups = 0;
    for (std::size_t a = 0, b = 0; a < acts.size(); a = b, ++groups) {
        std::size_t head = acts[a].jumps.size();
        for (b = a; b < acts.size() && same_bits(acts[b].cost, acts[a].cost) &&
                    same_bits(acts[b].stay, acts[a].stay);
             ++b) {
            std::size_t k = 0;
            while (k < head && k < acts[b].jumps.size() &&
                   acts[b].jumps[k].first == acts[a].jumps[k].first &&
                   same_bits(acts[b].jumps[k].second, acts[a].jumps[k].second))
                ++k;
            head = k;
            group[b] = groups;
        }
        bool tail_len[3] = {false, false, false};
        for (std::size_t c = a; c < b; ++c)
            tail_len[std::min<std::size_t>(acts[c].jumps.size() - head, 2)] =
                true;
        if (tail_len[0] && tail_len[1] && tail_len[2])
            ++shapes.mixed_tail_groups;
    }
    if (groups > 1) ++shapes.multi_group_states;
    return group;
}

/// value_iteration.cpp's tie tolerance and evaluation sweeps per Bellman
/// sweep, mirrored: the reference below must make the same choices.
constexpr double kTieTolerance = 1e-7;
constexpr std::size_t kEvaluationSweeps = 16;

/// Reference relative value iteration with no shared heads: every
/// action folds its whole value, c/L + stay * h[s] + sum prob * h[t], in
/// transition order, and a branchy scan keeps the first action with the
/// smallest value. Runs exactly `sweeps` sweeps; mirrors
/// relative_value_iteration's Jacobi and in-place Gauss–Seidel loops
/// (with its evaluation sweeps) and the tie-robust policy extraction,
/// with reference state 0.
struct ReferenceVi {
    const sm::CtmdpModel& model;
    double lambda;
    std::vector<std::vector<NaivePair>> pairs;
    std::vector<std::vector<std::size_t>> groups;
    Shapes shapes;

    explicit ReferenceVi(const sm::CtmdpModel& m)
        : model(m),
          lambda(std::max(m.max_exit_rate(), 1e-12) * 1.05 + 1e-9),
          pairs(naive_pairs(m, lambda)) {
        for (const auto& acts : pairs)
            groups.push_back(group_of_actions(acts, shapes));
    }

    /// The explicit value of action a at state s.
    double value(const socbuf::linalg::Vector& h, std::size_t s,
                 std::size_t a) const {
        const NaivePair& pair = pairs[s][a];
        double v = pair.cost + pair.stay * h[s];
        for (const auto& [t, prob] : pair.jumps) v += prob * h[t];
        return v;
    }

    /// min over actions of the explicit value.
    void bellman(const socbuf::linalg::Vector& h, std::size_t s,
                 double& best_out, std::size_t& action_out) {
        double best = std::numeric_limits<double>::infinity();
        std::size_t best_a = 0;
        for (std::size_t a = 0; a < pairs[s].size(); ++a) {
            const double v = value(h, s, a);
            if (v == best)
                ++(groups[s][a] == groups[s][best_a]
                       ? shapes.ties_within_group
                       : shapes.ties_across_groups);
            if (v < best) {
                best = v;
                best_a = a;
            }
        }
        best_out = best;
        action_out = best_a;
    }

    /// Per state, the first action within kTieTolerance of the minimum.
    sm::DeterministicPolicy extract(const socbuf::linalg::Vector& h) const {
        std::vector<std::size_t> policy(h.size(), 0);
        for (std::size_t s = 0; s < h.size(); ++s) {
            double best = std::numeric_limits<double>::infinity();
            for (std::size_t a = 0; a < pairs[s].size(); ++a)
                best = std::min(best, value(h, s, a));
            while (!(value(h, s, policy[s]) <= best + kTieTolerance))
                ++policy[s];
        }
        return sm::DeterministicPolicy(std::move(policy));
    }

    sm::ViResult jacobi(std::size_t sweeps) {
        const std::size_t n = model.state_count();
        socbuf::linalg::Vector h(n, 0.0), th(n, 0.0);
        std::vector<std::size_t> policy(n, 0);
        sm::ViResult out;
        double lo = 0.0, hi = 0.0;
        for (std::size_t it = 0; it < sweeps; ++it) {
            lo = std::numeric_limits<double>::infinity();
            hi = -lo;
            for (std::size_t s = 0; s < n; ++s) {
                bellman(h, s, th[s], policy[s]);
                lo = std::min(lo, th[s] - h[s]);
                hi = std::max(hi, th[s] - h[s]);
            }
            const double ref = th[0];
            for (std::size_t s = 0; s < n; ++s) h[s] = th[s] - ref;
        }
        out.gain = 0.5 * (hi + lo) * lambda;
        out.span_residual = hi - lo;
        out.iterations = sweeps;
        out.bellman_sweeps = sweeps;
        out.bias = h;
        out.policy = extract(h);
        return out;
    }

    /// In place, natural order: the gain estimate is state 0's explicit
    /// value on the pre-sweep h, and every state then stores its value
    /// minus that estimate straight into h. After every Bellman sweep,
    /// kEvaluationSweeps sweeps of the same form for its greedy policy.
    sm::ViResult gauss_seidel(std::size_t sweeps) {
        const std::size_t n = model.state_count();
        socbuf::linalg::Vector h(n, 0.0);
        std::vector<std::size_t> policy(n, 0);
        sm::ViResult out;
        double g = 0.0;
        double g_prev = std::numeric_limits<double>::infinity();
        while (out.iterations < sweeps) {
            bellman(h, 0, g, policy[0]);
            double delta = 0.0;
            for (std::size_t s = 0; s < n; ++s) {
                double v = 0.0;
                bellman(h, s, v, policy[s]);
                delta = std::max(delta, std::fabs(v - g - h[s]));
                h[s] = v - g;
            }
            out.span_residual = std::max(delta, std::fabs(g - g_prev));
            g_prev = g;
            ++out.iterations;
            ++out.bellman_sweeps;
            for (std::size_t e = 0;
                 e < kEvaluationSweeps && out.iterations < sweeps;
                 ++e, ++out.iterations) {
                const double ge = value(h, 0, policy[0]);
                for (std::size_t s = 0; s < n; ++s)
                    h[s] = value(h, s, policy[s]) - ge;
                g_prev = ge;
            }
        }
        out.gain = g * lambda;
        out.bias = h;
        out.policy = extract(h);
        return out;
    }
};

}  // namespace

TEST(ValueIteration, GoldenBitsPinned) {
    // Cross-version oracle: VI must reproduce these results bit for bit,
    // so a rewrite of the Bellman kernel or the uniformized layout cannot
    // silently change the fold order. Serial and 4-worker runs must both
    // hit the same pin. The Jacobi rows' gain, residual, sweeps and bias
    // were recorded with the per-pair full-fold kernel, their policies
    // and the Gauss–Seidel rows with the tie-robust extraction and the
    // in-place sweep with evaluation sweeps; do not regenerate them to
    // make a kernel change pass.
    struct Golden {
        const char* name;
        double gain;
        double span_residual;
        std::size_t iterations;
        std::size_t bellman_sweeps;
        std::uint64_t bias;    // bias_digest
        std::uint64_t policy;  // policy_digest
    };
    static const Golden golden[] = {
#include "vi_golden.inc"
    };
    const auto& bus_b = figure1_bus_b();
    std::vector<double> bus_b_rates;
    for (const auto& f : bus_b.flows) bus_b_rates.push_back(f.arrival_rate);
    const std::pair<const char*, sm::CtmdpModel> models[] = {
        {"np_ingress(6,2)", np_ingress_model(6, 2)},
        {"np_ingress(4,3)", np_ingress_model(4, 3)},
        {"figure1 bus b cap 4",
         socbuf::core::SubsystemCtmdp(
             bus_b, std::vector<long>(bus_b.flows.size(), 4), bus_b_rates)
             .model()},
        {"figure1 bus b modulated cap 3",
         socbuf::core::ModulatedSubsystemCtmdp(
             bus_b, std::vector<long>(bus_b.flows.size(), 3), bus_b_rates)
             .model()},
        {"head cases", head_cases_model()},
    };
    socbuf::exec::Executor executor(4);
    std::size_t next = 0;
    for (const auto& [model_name, model] : models) {
        for (const auto sweep :
             {sm::ViSweep::kJacobi, sm::ViSweep::kGaussSeidel}) {
            const std::string name =
                std::string(model_name) +
                (sweep == sm::ViSweep::kJacobi ? "/jacobi" : "/gauss-seidel");
            ASSERT_LT(next, std::size(golden)) << name;
            const Golden& want = golden[next++];
            ASSERT_EQ(name, want.name);
            sm::ViOptions options;
            options.sweep = sweep;
            options.tolerance = 1e-8;
            options.max_iterations = 50000;
            for (const bool fanned : {false, true}) {
                auto run_options = options;
                if (fanned) {
                    run_options.executor = &executor;
                    run_options.parallel_min_states = 1;
                }
                const auto got =
                    sm::relative_value_iteration(model, run_options);
                const std::uint64_t bias = bias_digest(got);
                const std::uint64_t policy = policy_digest(got);
                std::ostringstream record;
                record << std::hexfloat << "{\"" << name << "\", "
                       << got.gain << ", " << got.span_residual << ", "
                       << std::dec << got.iterations << ", "
                       << got.bellman_sweeps << ", 0x" << std::hex << bias
                       << "ULL, 0x" << policy << "ULL},";
                const std::string context =
                    name + (fanned ? " fanned x4" : " serial") +
                    "; got " + record.str();
                ASSERT_TRUE(got.converged) << context;
                EXPECT_EQ(got.gain, want.gain) << context;
                EXPECT_EQ(got.span_residual, want.span_residual) << context;
                EXPECT_EQ(got.iterations, want.iterations) << context;
                EXPECT_EQ(got.bellman_sweeps, want.bellman_sweeps) << context;
                EXPECT_EQ(bias, want.bias) << context;
                EXPECT_EQ(policy, want.policy) << context;
            }
        }
    }
    EXPECT_EQ(next, std::size(golden));
}

TEST(ValueIteration, MatchesTheNaiveReferenceOnIrregularLayouts) {
    // An independent kernel oracle: on random models whose groups, heads
    // and tails take every shape the shared-head layout knows, a fixed
    // number of Jacobi and in-place Gauss–Seidel sweeps must reproduce the
    // naive per-action reference bit for bit, serially and with a
    // four-worker executor (600 states: three 256-state Jacobi chunks).
    constexpr std::size_t kStates = 600;
    constexpr std::size_t kSweeps = 40;
    socbuf::exec::Executor executor(4);
    Shapes reached;
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL, 6ULL}) {
        const auto model = irregular_model(seed, kStates);
        ReferenceVi reference(model);
        ASSERT_EQ(model.max_exit_rate(), 8.0) << "seed " << seed;
        for (const auto sweep :
             {sm::ViSweep::kJacobi, sm::ViSweep::kGaussSeidel}) {
            const auto want = sweep == sm::ViSweep::kJacobi
                                  ? reference.jacobi(kSweeps)
                                  : reference.gauss_seidel(kSweeps);
            sm::ViOptions options;
            options.sweep = sweep;
            options.tolerance = 0.0;  // never converges: exactly kSweeps
            options.max_iterations = kSweeps;
            for (const bool fanned : {false, true}) {
                auto run_options = options;
                if (fanned) {
                    run_options.executor = &executor;
                    run_options.parallel_min_states = 1;
                }
                const auto got =
                    sm::relative_value_iteration(model, run_options);
                SCOPED_TRACE(testing::Message()
                             << "seed " << seed
                             << (sweep == sm::ViSweep::kJacobi
                                     ? " jacobi"
                                     : " gauss-seidel")
                             << (fanned ? " fanned x4" : " serial"));
                EXPECT_FALSE(got.converged);
                expect_bit_identical(got, want);
            }
        }
        const Shapes& s = reference.shapes;
        reached.multi_group_states += s.multi_group_states;
        reached.mixed_tail_groups += s.mixed_tail_groups;
        reached.ties_within_group += s.ties_within_group;
        reached.ties_across_groups += s.ties_across_groups;
    }
    // The generator really reaches the shapes it is for.
    EXPECT_GT(reached.multi_group_states, 0u);
    EXPECT_GT(reached.mixed_tail_groups, 0u);
    EXPECT_GT(reached.ties_within_group, 0u);
    EXPECT_GT(reached.ties_across_groups, 0u);
}

TEST(ValueIteration, AnExactTieResolvesToTheFirstActionInEitherSweep) {
    // State 0 serves one of two mirrored queues, 1 and 2, whose jumps are
    // listed in opposite orders: the two actions tie in exact arithmetic,
    // but the in-place sweep's asymmetric trajectory leaves the computed
    // h(1) and h(2) about 2e-8 apart (the strict argmin picked action 1
    // under Gauss–Seidel). The tie-robust policy takes the first
    // action in model order under both sweeps.
    sm::CtmdpBuilder b(3);
    b.add_action(0, {{1, 1.0}}, 1.0);
    b.add_action(0, {{2, 1.0}}, 1.0);
    b.add_action(1, {{0, 0.3}, {2, 0.7}}, 0.5);
    b.add_action(2, {{1, 0.7}, {0, 0.3}}, 0.5);
    const auto model = std::move(b).freeze();
    for (const auto sweep : {sm::ViSweep::kJacobi, sm::ViSweep::kGaussSeidel}) {
        sm::ViOptions options;
        options.sweep = sweep;
        options.tolerance = 1e-7;
        const auto r = sm::relative_value_iteration(model, options);
        const char* name =
            sweep == sm::ViSweep::kJacobi ? "jacobi" : "gauss-seidel";
        ASSERT_TRUE(r.converged) << name;
        // Under Gauss–Seidel the tie is not bitwise.
        if (sweep == sm::ViSweep::kGaussSeidel) {
            EXPECT_NE(r.bias[1], r.bias[2]) << name;
        }
        EXPECT_EQ(r.policy.action(0), 0u) << name;
    }
}

TEST(ValueIteration, UnconvergedGainIsTheSpanMidpoint) {
    // A Jacobi run cut short still reports the midpoint of its last
    // sweep's span bounds, so the gain error stays within half the
    // reported span (Puterman 8.5.5) at every cut-off.
    const auto model = np_ingress_model(6, 2);
    sm::ViOptions jacobi;
    jacobi.sweep = sm::ViSweep::kJacobi;
    const auto converged = sm::relative_value_iteration(model, jacobi);
    ASSERT_TRUE(converged.converged);
    const double lambda = model.max_exit_rate() * 1.05 + 1e-9;
    for (const std::size_t k : {2UL, 5UL, 10UL, 20UL, 50UL, 100UL, 200UL}) {
        sm::ViOptions options = jacobi;
        options.max_iterations = k;
        const auto cut = sm::relative_value_iteration(model, options);
        ASSERT_FALSE(cut.converged) << k;
        EXPECT_EQ(cut.iterations, k);
        EXPECT_LE(std::fabs(cut.gain - converged.gain),
                  0.5 * cut.span_residual * lambda)
            << "max_iterations " << k;
    }
}

TEST(ParallelVi, FannedJacobiBitIdenticalAtEveryWidth) {
    // The chunk boundaries of the fanned sweep depend only on the state
    // count, never on the pool size, so one, two and four workers (and
    // the no-executor serial loop) must produce the same bits —
    // including iteration counts and the final residual.
    sm::ViOptions jacobi;
    jacobi.sweep = sm::ViSweep::kJacobi;
    for (const long cap : {3L, 4L}) {
        for (const auto& sub : figure1_subsystems(cap)) {
            const auto& model = sub.model();
            const auto serial = sm::relative_value_iteration(model, jacobi);
            ASSERT_TRUE(serial.converged);
            for (const std::size_t threads : {1UL, 2UL, 4UL}) {
                socbuf::exec::Executor executor(threads);
                sm::ViOptions options = jacobi;
                options.executor = &executor;
                options.parallel_min_states = 1;  // force the fanned path
                const auto fanned =
                    sm::relative_value_iteration(model, options);
                ASSERT_TRUE(fanned.converged);
                expect_bit_identical(serial, fanned);
            }
        }
    }
}

TEST(GaussSeidel, MatchesJacobiGainOnPresetSubsystems) {
    // Different trajectory, same fixed point: gains agree to the stopping
    // tolerance, not bit for bit.
    sm::ViOptions jacobi_options;
    jacobi_options.sweep = sm::ViSweep::kJacobi;
    for (const long cap : {3L, 4L}) {
        for (const auto& sub : figure1_subsystems(cap)) {
            const auto& model = sub.model();
            const auto jacobi =
                sm::relative_value_iteration(model, jacobi_options);
            sm::ViOptions options;
            options.sweep = sm::ViSweep::kGaussSeidel;
            const auto gs = sm::relative_value_iteration(model, options);
            ASSERT_TRUE(jacobi.converged);
            ASSERT_TRUE(gs.converged);
            EXPECT_NEAR(gs.gain, jacobi.gain, 1e-7)
                << "states " << model.state_count();
            // The bias convention is shared: h(ref) = 0 exactly.
            EXPECT_EQ(gs.bias[0], 0.0);
        }
    }
}

TEST(GaussSeidel, CutsSweepsByAThirdOnTheClusterBus) {
    // The acceleration claim on the wide-band np family (2187 states):
    // the in-place sweep needs at most two thirds of Jacobi's sweep count
    // at the engine's VI-rung tolerance, counting its evaluation sweeps
    // (426, 26 of them Bellman sweeps, against 673). Both solvers are
    // deterministic, so the pin cannot flake.
    const auto model = np_ingress_model(6, 2);
    ASSERT_EQ(model.state_count(), 2187u);
    sm::ViOptions jacobi;
    jacobi.sweep = sm::ViSweep::kJacobi;
    jacobi.tolerance = 1e-7;
    jacobi.max_iterations = 50000;
    auto gs = jacobi;
    gs.sweep = sm::ViSweep::kGaussSeidel;
    const auto rj = sm::relative_value_iteration(model, jacobi);
    const auto rg = sm::relative_value_iteration(model, gs);
    ASSERT_TRUE(rj.converged);
    ASSERT_TRUE(rg.converged);
    EXPECT_NEAR(rg.gain, rj.gain, 1e-5);
    EXPECT_LE(3 * rg.iterations, 2 * rj.iterations);
}

TEST(GaussSeidel, EvaluationSweepsCarryTheClusterBus) {
    // On the 16384-state cluster bus (vi-cluster's) at the engine's
    // tolerance, most sweeps are evaluation sweeps of a fixed policy:
    // at most one in eight is a full Bellman sweep. The gain still meets
    // Jacobi's, and both return the same tie-robust policy.
    const auto model = np_ingress_model(6, 3);
    ASSERT_EQ(model.state_count(), 16384u);
    sm::ViOptions jacobi;
    jacobi.sweep = sm::ViSweep::kJacobi;
    jacobi.tolerance = 1e-7;
    jacobi.max_iterations = 50000;
    auto gs = jacobi;
    gs.sweep = sm::ViSweep::kGaussSeidel;
    const auto rj = sm::relative_value_iteration(model, jacobi);
    const auto rg = sm::relative_value_iteration(model, gs);
    ASSERT_TRUE(rj.converged);
    ASSERT_TRUE(rg.converged);
    EXPECT_EQ(rj.bellman_sweeps, rj.iterations);
    EXPECT_LE(rg.bellman_sweeps * 8, rg.iterations)
        << rg.bellman_sweeps << " Bellman sweeps of " << rg.iterations;
    EXPECT_NEAR(rg.gain, rj.gain, 1e-6);
    EXPECT_EQ(rg.policy.choices(), rj.policy.choices());
}

TEST(GaussSeidel, DeterministicAtEveryWidth) {
    // The in-place sweep is one serial pass and ignores the executor, so
    // it keeps the determinism contract trivially: any worker count, same
    // bits.
    const auto model = np_ingress_model(6, 2);
    sm::ViOptions options;
    options.sweep = sm::ViSweep::kGaussSeidel;
    options.tolerance = 1e-7;
    options.max_iterations = 50000;
    const auto serial = sm::relative_value_iteration(model, options);
    ASSERT_TRUE(serial.converged);
    for (const std::size_t threads : {1UL, 2UL, 4UL}) {
        socbuf::exec::Executor executor(threads);
        auto fanned_options = options;
        fanned_options.executor = &executor;
        fanned_options.parallel_min_states = 1;
        const auto fanned =
            sm::relative_value_iteration(model, fanned_options);
        ASSERT_TRUE(fanned.converged);
        expect_bit_identical(serial, fanned);
    }
}

TEST(Occupation, GoldenBitsPinned) {
    // Cross-version oracle for the post-solve stationary pass: the
    // occupation measure and policy cost of two fixed policies must come
    // out bit for bit as recorded, so a rewrite of the chain's layout
    // cannot silently change its fold order. Recorded with the
    // gather-form Gauss–Seidel sweep; do not regenerate them to make a
    // layout change pass.
    struct Golden {
        const char* name;
        std::uint64_t occupation_digest;  // FNV-1a of the x(s,a) bytes
        double cost;                      // average_cost_of_policy
    };
    static const Golden golden[] = {
        {"figure1 bus b cap 4/lp", 0xaf5fc102b2d6b7d3ULL, 0x1.83883c9a12954p-4},
        {"np_ingress(4,3)/vi", 0xb63031860610086ULL, 0x1.6fbe1a265e4e2p-3},
    };
    const auto& bus_b = figure1_bus_b();
    std::vector<double> bus_b_rates;
    for (const auto& f : bus_b.flows) bus_b_rates.push_back(f.arrival_rate);
    sm::DispatchOptions lp;
    lp.choice = sm::SolverChoice::kLp;
    // The Jacobi policy, whose bias bits are pinned above; its
    // tie-robust policy is the Gauss–Seidel one too. The "/vi" row was
    // re-recorded when VI policies became tie-robust: one state's action
    // moved between near-tied actions.
    sm::DispatchOptions vi;
    vi.choice = sm::SolverChoice::kValueIteration;
    vi.solver.vi.sweep = sm::ViSweep::kJacobi;
    vi.solver.vi.tolerance = 1e-7;
    vi.solver.vi.max_iterations = 50000;
    const struct {
        sm::CtmdpModel model;
        sm::DispatchOptions dispatch;
    } cases[] = {
        {socbuf::core::SubsystemCtmdp(
             bus_b, std::vector<long>(bus_b.flows.size(), 4), bus_b_rates)
             .model(),
         lp},
        {np_ingress_model(4, 3), vi},
    };
    static_assert(std::size(cases) == std::size(golden));
    sm::SolverRegistry registry;
    for (std::size_t c = 0; c < std::size(cases); ++c) {
        const auto& model = cases[c].model;
        const auto policy = registry.solve(model, cases[c].dispatch).policy;
        const auto x = sm::occupation_of_policy(model, policy);
        const double cost = sm::average_cost_of_policy(model, policy);
        const std::uint64_t digest = fnv1a(0xcbf29ce484222325ULL, x.data(),
                                           x.size() * sizeof(double));
        std::ostringstream record;
        record << "{\"" << golden[c].name << "\", 0x" << std::hex << digest
               << "ULL, " << std::hexfloat << cost << "},";
        const std::string context =
            std::string(golden[c].name) + "; got " + record.str();
        EXPECT_EQ(digest, golden[c].occupation_digest) << context;
        EXPECT_EQ(cost, golden[c].cost) << context;
    }
}

TEST(ParallelVi, SolutionMatchesSerialOnTheViRung) {
    // End-to-end through the solver layer on a model past the fan gate
    // (1024 states >= parallel_min_states): the full Jacobi solution —
    // gain, bias, stationary distribution and occupation measure — must
    // not move when an executor is plugged in.
    const auto model = np_ingress_model(4, 3);
    ASSERT_EQ(model.state_count(), 1024u);
    sm::DispatchOptions vi;
    vi.choice = sm::SolverChoice::kValueIteration;
    vi.solver.vi.sweep = sm::ViSweep::kJacobi;
    vi.solver.vi.tolerance = 1e-7;
    vi.solver.vi.max_iterations = 50000;
    sm::SolverRegistry registry;
    const auto serial = registry.solve(model, vi);
    socbuf::exec::Executor executor(4);
    auto fanned_options = vi;
    fanned_options.solver.vi.executor = &executor;
    const auto fanned = registry.solve(model, fanned_options);
    EXPECT_EQ(serial.gain, fanned.gain);
    EXPECT_EQ(serial.bias, fanned.bias);
    EXPECT_EQ(serial.stationary, fanned.stationary);
    EXPECT_EQ(serial.occupation, fanned.occupation);
}

TEST(SolveCacheFingerprint, SweepIsKeyedScheduleKnobsAreNot) {
    const auto models = figure1_subsystems(2);
    const auto& model = models.front().model();
    const sm::DispatchOptions base;
    const auto base_key = sm::solve_fingerprint(model, base);

    // The sweep changes result bits, so it must change the key.
    auto jacobi = base;
    jacobi.solver.vi.sweep = sm::ViSweep::kJacobi;
    EXPECT_NE(sm::solve_fingerprint(model, jacobi), base_key);

    // Schedule-only knobs are bit-identical by contract and must share
    // the key — otherwise fanned and serial runs could not share cache
    // entries.
    socbuf::exec::Executor executor(2);
    auto fanned = base;
    fanned.solver.vi.executor = &executor;
    fanned.solver.vi.parallel_min_states = 7;
    EXPECT_EQ(sm::solve_fingerprint(model, fanned), base_key);
}
