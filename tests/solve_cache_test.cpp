#include "core/subsystem_model.hpp"
#include "ctmdp/model.hpp"
#include "ctmdp/solve_cache.hpp"
#include "ctmdp/solver.hpp"
#include "exec/executor.hpp"
#include "exec/thread_pool.hpp"
#include "split/splitter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace sm = socbuf::ctmdp;

namespace {

/// Small controlled queue: serve fast (cost 3) or slow (cost 1); the
/// optimum is size-dependent enough that solvers do real work. State 0's
/// slow action costs exactly `idle_cost` (so a test can set -0.0), and
/// `zero_rate_pads` zero-rate transitions are appended to the last action:
/// they grow the model's arrays without changing any solve.
sm::CtmdpModel queue_model(std::size_t cap, double lambda,
                           double idle_cost = 0.0,
                           std::size_t zero_rate_pads = 0) {
    sm::CtmdpBuilder b(cap + 1);
    for (std::size_t i = 0; i <= cap; ++i) {
        for (const double mu : {1.0, 3.0}) {  // slow, then fast
            std::vector<sm::Transition> moves;
            if (i < cap) moves.push_back({i + 1, lambda});
            if (i > 0) moves.push_back({i - 1, mu});
            const double speed_cost = mu > 1.0 ? 2.0 : 0.0;
            b.add_action(i, moves,
                         i == 0 && mu == 1.0
                             ? idle_cost
                             : static_cast<double>(i) + speed_cost +
                                   (i == cap ? lambda : 0.0));
        }
    }
    for (std::size_t k = 0; k < zero_rate_pads; ++k) b.add_transition(0, 0.0);
    return std::move(b).freeze();
}

}  // namespace

TEST(SolveFingerprint, IdenticalModelsShareAKeyAndAnEntry) {
    const auto a = queue_model(4, 0.8);
    const auto b = queue_model(4, 0.8);
    // Two builds, two blocks: the match is by contents, not identity.
    ASSERT_NE(a.rates().data(), b.rates().data());
    const sm::DispatchOptions opts;
    EXPECT_EQ(sm::solve_fingerprint(a, opts), sm::solve_fingerprint(b, opts));

    sm::SolverRegistry registry;
    sm::SolveCache cache;
    (void)cache.solve(registry, a, opts);
    (void)cache.solve(registry, b, opts);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(SolveFingerprint, EveryResultChangingMutationIsAMissWithItsOwnEntry) {
    const auto base = queue_model(4, 0.8);
    const sm::DispatchOptions opts;
    struct Variant {
        const char* what;
        sm::CtmdpModel model;
        sm::DispatchOptions options;
    };
    std::vector<Variant> variants;
    // Model mutations. Doubles compare bit for bit: one ulp, or the sign
    // of a zero, is a different model.
    variants.push_back(
        {"one-ulp rate", queue_model(4, std::nextafter(0.8, 1.0)), opts});
    variants.push_back({"-0.0 cost", queue_model(4, 0.8, -0.0), opts});
    variants.push_back({"size", queue_model(5, 0.8), opts});
    // Solve-relevant options...
    variants.push_back({"solver choice", base, opts});
    variants.back().options.choice = sm::SolverChoice::kValueIteration;
    variants.push_back({"VI tolerance", base, opts});
    variants.back().options.solver.vi.tolerance = 1e-8;
    // ...including the iteration limits: a run that raises them after an
    // unconverged solve gets a fresh entry and re-solves instead of being
    // served the cached unconverged solution.
    variants.push_back({"VI iteration limit", base, opts});
    variants.back().options.solver.vi.max_iterations *= 2;
    variants.push_back({"PI update limit", base, opts});
    variants.back().options.solver.pi.max_policy_updates *= 2;
    // Jacobi follows a different VI trajectory than the default
    // Gauss–Seidel sweep (forced onto the VI rung, where the sweep
    // applies).
    variants.push_back({"Jacobi sweep", base, opts});
    variants.back().options.choice = sm::SolverChoice::kValueIteration;
    variants.back().options.solver.vi.sweep = sm::ViSweep::kJacobi;

    sm::SolverRegistry registry;
    sm::SolveCache cache;
    (void)cache.solve(registry, base, opts);
    std::vector<std::string> keys{sm::solve_fingerprint(base, opts)};
    for (const Variant& v : variants) {
        const std::string key = sm::solve_fingerprint(v.model, v.options);
        EXPECT_EQ(std::find(keys.begin(), keys.end(), key), keys.end())
            << v.what;
        keys.push_back(key);
        (void)cache.solve(registry, v.model, v.options);
        EXPECT_EQ(cache.stats().misses, keys.size()) << v.what;
        EXPECT_EQ(cache.size(), keys.size()) << v.what;
    }
    EXPECT_EQ(cache.stats().hits, 0u);

    // Every entry stays resident and serves its own key on a second pass.
    (void)cache.solve(registry, base, opts);
    for (const Variant& v : variants)
        (void)cache.solve(registry, v.model, v.options);
    EXPECT_EQ(cache.stats().hits, keys.size());
    EXPECT_EQ(cache.stats().misses, keys.size());
}

TEST(SharedModel, CopiesShareTheFrozenArrays) {
    const auto model = queue_model(4, 0.8);
    const sm::CtmdpModel copy = model;
    EXPECT_EQ(copy.rates().data(), model.rates().data());
    EXPECT_EQ(copy.pair_offsets().data(), model.pair_offsets().data());
    sm::CtmdpModel assigned;
    EXPECT_EQ(assigned.state_count(), 0u);
    assigned = model;
    EXPECT_EQ(assigned.targets().data(), model.targets().data());
}

TEST(SharedModel, EntryOutlivesTheCallersModel) {
    // The cache keeps a packed key, not the caller's model: once the
    // caller's model is gone, an identical rebuild (new storage) is
    // streamed against the entry's stored codes and hits.
    sm::SolverRegistry registry;
    sm::SolveCache cache;
    const sm::DispatchOptions opts;
    double gain = 0.0;
    {
        const auto model = queue_model(6, 0.9);
        gain = cache.solve(registry, model, opts).gain;
    }
    const auto rebuilt = queue_model(6, 0.9);
    EXPECT_EQ(cache.solve(registry, rebuilt, opts).gain, gain);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(registry.stats().total_solves(), 1u);
}

TEST(SolveCache, CountsHitsAndMissesAndReturnsIdenticalBits) {
    sm::SolverRegistry registry;
    sm::SolveCache cache;
    const sm::DispatchOptions opts;
    const auto model = queue_model(5, 0.9);

    const auto direct = registry.solve(model, opts);
    const auto first = cache.solve(registry, model, opts);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.size(), 1u);

    const auto second = cache.solve(registry, model, opts);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.5);

    // The cached copy is bit-identical to both the first pass and a direct
    // registry solve — a hit is indistinguishable from solving.
    EXPECT_EQ(second.gain, first.gain);
    EXPECT_EQ(second.gain, direct.gain);
    EXPECT_EQ(second.stationary, first.stationary);
    EXPECT_EQ(second.occupation, first.occupation);
    EXPECT_EQ(second.solved_by, first.solved_by);

    // Registry counters advanced once for the direct solve and once for
    // the miss; the hit did no solver work.
    EXPECT_EQ(registry.stats().total_solves(), 2u);
}

TEST(SolveCache, DistinctModelsGetDistinctEntries) {
    sm::SolverRegistry registry;
    sm::SolveCache cache;
    const sm::DispatchOptions opts;
    const auto a = cache.solve(registry, queue_model(4, 0.7), opts);
    const auto b = cache.solve(registry, queue_model(4, 1.4), opts);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_NE(a.gain, b.gain);
}

namespace {

/// A model every solver rejects (the empty model fails each algorithm's
/// precondition) — the cache's view of a "solver that throws".
sm::CtmdpModel unsolvable_model() { return sm::CtmdpModel{}; }

/// Approximate resident bytes of one model's entry, measured in a fresh
/// cache (the accounting is a pure function of the entry's contents, so
/// it is the same in every cache).
std::size_t entry_bytes(const sm::CtmdpModel& model,
                        const sm::DispatchOptions& opts = {}) {
    sm::SolverRegistry registry;
    sm::SolveCache probe;
    (void)probe.solve(registry, model, opts);
    return probe.stats().bytes_resident;
}

}  // namespace

TEST(SolveCache, CountersAndResidencyAreSchedulingIndependent) {
    // 32 lookups over 8 distinct keys: whatever the interleaving, every
    // key is solved once, so the counters and the residency are those of
    // a serial run.
    const sm::DispatchOptions opts;
    std::size_t all_keys = 0;
    for (std::size_t k = 0; k < 8; ++k)
        all_keys += entry_bytes(queue_model(3 + k, 0.8));
    for (const std::size_t threads : {1u, 4u}) {
        sm::SolverRegistry registry;
        sm::SolveCache cache;
        socbuf::exec::Executor exec(threads);
        const auto gains = exec.map(32, [&](std::size_t i) {
            const auto model = queue_model(3 + i % 8, 0.8);
            return cache.solve(registry, model, opts).gain;
        });
        EXPECT_EQ(cache.size(), 8u) << "threads=" << threads;
        EXPECT_EQ(cache.stats().misses, 8u) << "threads=" << threads;
        EXPECT_EQ(cache.stats().hits, 24u) << "threads=" << threads;
        EXPECT_EQ(cache.stats().bytes_resident, all_keys)
            << "threads=" << threads;
        for (std::size_t i = 8; i < 32; ++i)
            EXPECT_EQ(gains[i], gains[i % 8]) << "threads=" << threads;
    }
}

TEST(SolveCache, FailedSolveLeavesTheSlotReclaimable) {
    sm::SolverRegistry registry;
    sm::SolveCache cache;
    const sm::DispatchOptions opts;
    const auto bad = unsolvable_model();

    EXPECT_THROW((void)cache.solve(registry, bad, opts), std::exception);
    // The failed slot is gone, not wedged: no ready entry, and the next
    // requester re-claims (a fresh miss) instead of hanging or reading a
    // stale solution.
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.stats().bytes_resident, 0u);
    EXPECT_THROW((void)cache.solve(registry, bad, opts), std::exception);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().hits, 0u);

    // A failure never poisons the cache for solvable keys.
    const auto good = queue_model(4, 0.8);
    EXPECT_NO_THROW((void)cache.solve(registry, good, opts));
    EXPECT_EQ(cache.size(), 1u);
}

TEST(SolveCache, ConcurrentFailuresAllPropagateWithoutHangingWaiters) {
    // Many pool jobs race on one unsolvable key: whoever claims the slot
    // fails and must wake the waiters, who re-claim and fail in turn —
    // every lookup ends in an exception (a miss), nobody hangs, and the
    // counters stay consistent.
    sm::SolverRegistry registry;
    sm::SolveCache cache;
    const sm::DispatchOptions opts;
    const auto bad = unsolvable_model();
    constexpr std::size_t kLookups = 16;

    std::atomic<std::size_t> threw{0};
    socbuf::exec::ThreadPool pool(4);
    for (std::size_t i = 0; i < kLookups; ++i) {
        pool.submit([&] {
            try {
                (void)cache.solve(registry, bad, opts);
            } catch (const std::exception&) {
                ++threw;
            }
        });
    }
    pool.wait_idle();

    EXPECT_EQ(threw.load(), kLookups);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.stats().misses, kLookups);
    EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(SolveCache, CountersStayExactUnderFailuresAndWaiters) {
    // A key every solver rejects (the failure path runs constantly, with
    // waiters holding the failed slot) races two solvable keys. Whatever
    // the interleaving, the accounting is exact: every lookup is one hit
    // or one miss (never zero, never two), every bad lookup is a miss
    // that threw, and each good key is solved exactly once.
    sm::SolverRegistry registry;
    sm::SolveCache cache;
    const sm::DispatchOptions opts;
    const auto bad = unsolvable_model();
    const auto good_a = queue_model(3, 0.8);
    const auto good_b = queue_model(4, 0.8);
    constexpr std::size_t kPerKind = 48;

    std::atomic<std::size_t> threw{0};
    std::atomic<std::size_t> returned{0};
    {
        socbuf::exec::ThreadPool pool(4);
        for (std::size_t i = 0; i < kPerKind; ++i) {
            for (const auto* model : {&bad, &good_a, &good_b}) {
                pool.submit([&, model] {
                    try {
                        (void)cache.solve(registry, *model, opts);
                        ++returned;
                    } catch (const std::exception&) {
                        ++threw;
                    }
                });
            }
        }
        pool.wait_idle();
    }

    constexpr std::size_t kLookups = 3 * kPerKind;
    const sm::SolveCacheStats stats = cache.stats();
    EXPECT_EQ(threw.load(), kPerKind);
    EXPECT_EQ(returned.load(), 2 * kPerKind);
    EXPECT_EQ(stats.lookups(), kLookups);
    EXPECT_EQ(stats.misses, kPerKind + 2);
    EXPECT_EQ(stats.hits, 2 * kPerKind - 2);
    // No husk left behind: the failed key holds no entry and no
    // residency; both solvable keys stay.
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(stats.bytes_resident, entry_bytes(good_a) + entry_bytes(good_b));

    // The cache is fully functional afterwards: a serial lookup of a
    // solvable key is one more hit.
    (void)cache.solve(registry, good_a, opts);
    EXPECT_EQ(cache.stats().hits, stats.hits + 1);
}

TEST(SolveCache, IsSafeToShareAcrossWorkers) {
    sm::SolverRegistry registry;
    sm::SolveCache cache;
    const sm::DispatchOptions opts;
    // Eight distinct models, each solved from four concurrent lookups.
    socbuf::exec::Executor exec(4);
    const auto gains = exec.map(32, [&](std::size_t i) {
        const auto model = queue_model(3 + i % 8, 0.8);
        return cache.solve(registry, model, opts).gain;
    });
    EXPECT_EQ(cache.size(), 8u);
    // Each key is solved exactly once (concurrent requesters wait and
    // share the in-flight solve), so the counters are exact whatever the
    // interleaving: 8 misses, 24 hits.
    EXPECT_EQ(cache.stats().lookups(), 32u);
    EXPECT_EQ(cache.stats().misses, 8u);
    EXPECT_EQ(cache.stats().hits, 24u);
    EXPECT_EQ(registry.stats().total_solves(), 8u);
    for (std::size_t i = 8; i < 32; ++i) EXPECT_EQ(gains[i], gains[i % 8]);
}

TEST(SolveCache, BytesResidentCountsAnEntrysPackedKey) {
    // Zero-rate pads change no solve, so two padded entries differ only in
    // their packed keys. Both key the same dictionary words (the pads'
    // relative target and zero rate, and one longer last pair), so each
    // further pad adds exactly two code bytes: its target's and its rate's.
    constexpr std::size_t kPads = 5;
    const sm::DispatchOptions opts;
    const auto padded = queue_model(4, 0.7, 0.0, kPads);
    const auto more_padded = queue_model(4, 0.7, 0.0, 2 * kPads);
    ASSERT_EQ(more_padded.transition_count(),
              padded.transition_count() + kPads);
    const std::size_t one = entry_bytes(padded);
    EXPECT_EQ(entry_bytes(more_padded), one + 2 * kPads);
    // Everything but the key is the same kept solution.
    EXPECT_EQ(one - sm::packed_model_key(padded).size(),
              entry_bytes(more_padded) -
                  sm::packed_model_key(more_padded).size());

    sm::SolverRegistry registry;
    sm::SolveCache cache;
    (void)cache.solve(registry, padded, opts);
    (void)cache.solve(registry, more_padded, opts);
    EXPECT_EQ(cache.stats().bytes_resident, 2 * one + 2 * kPads);
    // A hit from another build of the same model adds nothing.
    (void)cache.solve(registry, queue_model(4, 0.7, 0.0, kPads), opts);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().bytes_resident, 2 * one + 2 * kPads);
}

TEST(SolveCache, EntriesKeepOnlyWhatConsumersRead) {
    // The pipeline reads gain, stationary, occupation and the solve's
    // bookkeeping; the bias and the per-state policy vectors are dropped
    // on the miss and absent on the hit, and the residency counts exactly
    // what an entry keeps. The VI solve has a bias to drop.
    sm::DispatchOptions vi;
    vi.choice = sm::SolverChoice::kValueIteration;
    const std::pair<sm::CtmdpModel, sm::DispatchOptions> cases[] = {
        {queue_model(5, 0.9), sm::DispatchOptions{}},
        {queue_model(6, 0.8), vi},
    };
    sm::SolverRegistry registry;
    sm::SolveCache cache;
    std::size_t kept = 0;
    for (const auto& [model, opts] : cases) {
        const auto direct = registry.solve(model, opts);
        ASSERT_EQ(direct.policy.state_count(), model.state_count());
        if (opts.choice == sm::SolverChoice::kValueIteration) {
            ASSERT_FALSE(direct.bias.empty());
        }
        const auto miss = cache.solve(registry, model, opts);
        const auto hit = cache.solve(registry, model, opts);
        for (const sm::SubsystemSolution* got : {&miss, &hit}) {
            EXPECT_TRUE(got->bias.empty());
            EXPECT_EQ(got->policy.state_count(), 0u);
            EXPECT_EQ(got->gain, direct.gain);
            EXPECT_EQ(got->stationary, direct.stationary);
            EXPECT_EQ(got->occupation, direct.occupation);
            EXPECT_EQ(got->iterations, direct.iterations);
            EXPECT_EQ(got->switching_states, direct.switching_states);
            EXPECT_EQ(got->solved_by, direct.solved_by);
            EXPECT_EQ(got->converged, direct.converged);
        }
        const std::size_t options_block =
            sm::solve_fingerprint(model, opts).size() - sizeof(std::uint64_t);
        kept += sm::packed_model_key(model).size() + options_block +
                (direct.stationary.size() + direct.occupation.size()) *
                    sizeof(double) +
                sizeof(std::pair<const std::uint64_t, void*>) +
                sizeof(sm::SubsystemSolution);
    }
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.stats().bytes_resident, kept);
}

namespace {

/// One state-action pair of a hand-written model.
struct PairSpec {
    std::size_t state = 0;
    std::vector<sm::Transition> moves;
    double cost = 0.0;
};

sm::CtmdpModel from_pairs(std::size_t states,
                          const std::vector<PairSpec>& pairs) {
    sm::CtmdpBuilder b(states);
    for (const PairSpec& p : pairs) b.add_action(p.state, p.moves, p.cost);
    return std::move(b).freeze();
}

/// Three states, two actions each (slow and fast service).
std::vector<PairSpec> three_state_pairs() {
    return {
        {0, {{1, 0.5}}, 0.0},
        {0, {{1, 0.5}, {2, 0.1}}, 1.0},
        {1, {{2, 0.5}, {0, 1.0}}, 1.0},
        {1, {{2, 0.5}, {0, 3.0}}, 3.0},
        {2, {{1, 1.0}}, 2.5},
        {2, {{1, 3.0}}, 4.5},
    };
}

/// A dense chain whose rates are all distinct: each of 20 states jumps to
/// every other state at its own rate, so the rate array has 380 distinct
/// words (more than 255) and is keyed raw. `bump` moves one rate up by
/// one ulp.
sm::CtmdpModel dense_model(bool bump = false) {
    constexpr std::size_t kStates = 20;
    sm::CtmdpBuilder b(kStates);
    double rate = 1.0;
    for (std::size_t i = 0; i < kStates; ++i) {
        std::vector<sm::Transition> moves;
        for (std::size_t j = 0; j < kStates; ++j) {
            if (j == i) continue;
            rate += 1e-3;
            moves.push_back({j, bump && i == 7 && j == 3
                                    ? std::nextafter(rate, 2.0)
                                    : rate});
        }
        b.add_action(i, moves, static_cast<double>(i));
    }
    return std::move(b).freeze();
}

}  // namespace

TEST(PackedKey, EveryArrayChangeIsAMissWithItsOwnEntry) {
    const auto base_pairs = three_state_pairs();
    struct Variant {
        const char* what;
        sm::CtmdpModel model;
    };
    std::vector<Variant> variants;
    {
        auto pairs = base_pairs;
        pairs[2].moves[0].rate = std::nextafter(0.5, 1.0);
        variants.push_back({"one-ulp rate", from_pairs(3, pairs)});
    }
    {
        auto pairs = base_pairs;
        pairs[0].cost = -0.0;
        variants.push_back({"-0.0 cost", from_pairs(3, pairs)});
    }
    {
        auto pairs = base_pairs;
        pairs[3].moves[1].target = 2;  // fast service of state 1 -> state 2
        variants.push_back({"one retargeted transition",
                            from_pairs(3, pairs)});
    }
    {
        // State 0's second action hands its first transition to the first
        // action: the flat targets and rates and the state's transition
        // total are unchanged; only the pair boundary moves.
        auto pairs = base_pairs;
        pairs[0].moves.push_back(pairs[1].moves.front());
        pairs[1].moves.erase(pairs[1].moves.begin());
        variants.push_back({"transition moved between pairs",
                            from_pairs(3, pairs)});
    }
    const auto base = from_pairs(3, base_pairs);
    ASSERT_EQ(variants[3].model.targets(), base.targets());
    ASSERT_EQ(variants[3].model.rates(), base.rates());
    // The raw path: more than 255 distinct rates, and its one-ulp twin.
    variants.push_back({"raw-keyed rates", dense_model()});
    variants.push_back({"raw-keyed rates, one ulp", dense_model(true)});

    // Each variant's packed key differs from the base's and does not
    // match the base's arrays, so even a hash collision could not serve
    // one for the other; a rebuilt copy (new storage) matches.
    const std::string base_key = sm::packed_model_key(base);
    EXPECT_TRUE(
        sm::matches_packed_key(base_key, from_pairs(3, base_pairs)));
    for (const Variant& v : variants) {
        const std::string key = sm::packed_model_key(v.model);
        EXPECT_NE(key, base_key) << v.what;
        EXPECT_FALSE(sm::matches_packed_key(base_key, v.model)) << v.what;
        EXPECT_FALSE(sm::matches_packed_key(key, base)) << v.what;
        EXPECT_TRUE(sm::matches_packed_key(key, v.model)) << v.what;
    }
    const std::string raw_key = sm::packed_model_key(dense_model());
    EXPECT_TRUE(sm::matches_packed_key(raw_key, dense_model()));
    EXPECT_FALSE(sm::matches_packed_key(raw_key, dense_model(true)));

    sm::SolverRegistry registry;
    sm::SolveCache cache;
    const sm::DispatchOptions opts;
    (void)cache.solve(registry, base, opts);
    std::size_t keys = 1;
    for (const Variant& v : variants) {
        (void)cache.solve(registry, v.model, opts);
        ++keys;
        EXPECT_EQ(cache.stats().misses, keys) << v.what;
        EXPECT_EQ(cache.size(), keys) << v.what;
    }
    EXPECT_EQ(cache.stats().hits, 0u);

    // Rebuilt copies (new storage) of the base and raw-keyed models, and a
    // second lookup of every variant, hit their own entries.
    (void)cache.solve(registry, from_pairs(3, base_pairs), opts);
    (void)cache.solve(registry, dense_model(), opts);
    (void)cache.solve(registry, dense_model(true), opts);
    for (const Variant& v : variants)
        (void)cache.solve(registry, v.model, opts);
    EXPECT_EQ(cache.stats().hits, 3u + variants.size());
    EXPECT_EQ(cache.stats().misses, keys);
}

TEST(PackedKey, RawKeyedRatesKeepEightBytesEach) {
    // Over 255 distinct rates overflow the one-byte codes: the rate array
    // is stored word for word.
    const auto dense = dense_model();
    ASSERT_GT(dense.rates().size(), 255u);
    EXPECT_GT(sm::packed_model_key(dense).size(),
              dense.rates().size() * sizeof(double));
}

TEST(PackedKey, ClusterBusKeyIsUnderAQuarterOfItsArrays) {
    // A cluster-bus-shaped subsystem: five flows at cap 3, 4^5 = 1024
    // states. Its offsets, relative targets, rates and costs take a few
    // distinct values each, so the packed key is about a byte per element.
    socbuf::split::Subsystem bus;
    bus.service_rate = 2.0;
    std::vector<double> rates;
    for (std::size_t f = 0; f < 5; ++f) {
        socbuf::split::SubsystemFlow flow;
        flow.site = f;
        flow.arrival_rate = 0.2 + 0.05 * static_cast<double>(f);
        flow.weight = 1.0 + static_cast<double>(f % 2);
        bus.flows.push_back(flow);
        rates.push_back(flow.arrival_rate);
    }
    const socbuf::core::SubsystemCtmdp sub(bus, std::vector<long>(5, 3),
                                           rates);
    const sm::CtmdpModel& model = sub.model();
    ASSERT_EQ(model.state_count(), 1024u);
    const std::size_t raw_bytes =
        (model.pair_offsets().size() + model.transition_offsets().size() +
         model.targets().size()) *
            sizeof(std::size_t) +
        (model.rates().size() + model.costs().size()) * sizeof(double);

    EXPECT_LT(sm::packed_model_key(model).size(), raw_bytes / 4);
    // The entry adds the solution's vectors to the key; together they
    // still stay under half the arrays.
    EXPECT_LT(entry_bytes(model), raw_bytes / 2);
}
