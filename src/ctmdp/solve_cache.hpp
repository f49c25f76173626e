// A memoizing cache over SolverRegistry::solve, shared across a batch.
//
// Budget sweeps and replicated scenario runs keep rebuilding *identical*
// subsystem CTMDPs — the engine's fixed point repeats its final round, a
// replication re-sizes the same (system, budget), and sweep variants share
// subsystems — and every one of those re-solves an LP / value iteration
// that was already solved. The cache keys a solution by (model, dispatch
// options) and serves it only for an exact match, so a cache hit is
// indistinguishable from a fresh solve, which is what keeps BatchRunner's
// determinism contract intact when many threads share one cache.
//
// Exactness without a serialized key: an entry holds a copy of the model
// handle (CtmdpModel copies share their immutable arrays, so this is the
// memory the caller's builder froze, not a second copy), the encoded
// options block, and a 64-bit hash of both. A lookup hashes the caller's
// arrays outside the lock, allocation-free, and on a hash match compares
// the candidate array by array with memcmp: pair and transition offsets,
// targets, rates, costs and extra costs, plus the extra-cost width and
// the options bytes. Doubles therefore compare bit for bit: a one-ulp
// rate change or a +0.0 vs -0.0 cost is a different model. The hash only
// picks candidates; a collision costs one failed comparison, never a
// wrong result.
//
// Each key is solved exactly once while it is resident: the first
// requester claims it and solves *outside* the lock while later
// requesters wait on the in-flight solve and share its result. No work is
// duplicated, and with an unlimited budget the counters are
// scheduling-independent — for a fixed set of lookups, misses always
// equal the number of distinct keys and hits the remainder, whatever the
// thread interleaving (which is why batch reports can include them and
// stay bit-identical across worker counts).
//
// Size budget: construct with a positive `byte_budget` to bound the
// approximate resident bytes; least-recently-used unpinned entries are
// evicted whenever a lookup's bookkeeping settles over budget — on solve
// completion, on a hit, and on the failure path alike (entries another
// thread is solving or waiting on are pinned, and the most-recently-used
// entry — the one the finishing lookup just touched — is never the
// victim, so residency can exceed the budget transiently rather than
// thrash; retrying on every settling event is what keeps the excess
// transient even when an eviction scan had to skip a then-pinned entry).
// Eviction never changes *results* — a re-solve of an evicted key
// returns identical bits — but under concurrency it makes the
// hit/miss/eviction split depend on which entry completed first, so
// counter determinism is only guaranteed when the budget is 0
// (unlimited) or covers every distinct key.
#pragma once

#include "ctmdp/solver.hpp"

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <string>
#include <utility>

namespace socbuf::ctmdp {

/// The cache's per-entry key for (model, options): the 8-byte hash of the
/// model arrays and options, followed by the encoded options block (every
/// solve-relevant dispatch/solver knob, doubles bit-exact). Different
/// fingerprints mean different entries; equal ones are confirmed against
/// the entry's model array by array before a hit is served.
[[nodiscard]] std::string solve_fingerprint(const CtmdpModel& model,
                                            const DispatchOptions& options);

struct SolveCacheStats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t evictions = 0;  // 0 unless a byte budget is set
    /// Approximate bytes held by resident (solved) entries: model arrays
    /// (once each), options blocks, result vectors, and per-entry
    /// bookkeeping. Deterministic given the set of resident entries
    /// (exact with no budget).
    std::size_t bytes_resident = 0;
    [[nodiscard]] std::size_t lookups() const { return hits + misses; }
    [[nodiscard]] double hit_rate() const {
        return lookups() == 0
                   ? 0.0
                   : static_cast<double>(hits) / static_cast<double>(lookups());
    }
};

/// Thread-safe memo table over a SolverRegistry. One instance is meant to
/// live as long as a batch and be shared by every engine run in it.
class SolveCache {
public:
    /// `byte_budget` bounds the *approximate* resident bytes
    /// (stats().bytes_resident): least-recently-used unpinned entries are
    /// evicted until the residency is back under budget (see the header
    /// comment for the pinning rules and the best-effort transients).
    /// 0 means unlimited, the default and the only setting under which
    /// the hit/miss counters are scheduling-independent for every
    /// workload.
    explicit SolveCache(std::size_t byte_budget = 0);

    /// Return the cached solution for (model, options) or solve through
    /// `registry` and remember the result. Registry counters only advance
    /// on misses, so a SizingReport's lp/vi/pi counts reflect actual work.
    /// A solver failure propagates to the claiming requester and leaves
    /// the slot reclaimable: concurrent waiters retry the solve instead
    /// of hanging, and the counters stay consistent (every lookup is
    /// exactly one hit or one miss).
    [[nodiscard]] SubsystemSolution solve(SolverRegistry& registry,
                                          const CtmdpModel& model,
                                          const DispatchOptions& options);

    [[nodiscard]] SolveCacheStats stats() const;
    /// Number of solved entries held.
    [[nodiscard]] std::size_t size() const;
    /// The byte budget this cache was constructed with (0 = unlimited).
    [[nodiscard]] std::size_t byte_budget() const { return byte_budget_; }

private:
    struct Slot {
        enum State { kUnsolved, kSolving, kReady };
        State state = kUnsolved;
        /// Threads blocked on this slot's in-flight solve; a slot with
        /// waiters (or in kSolving) is pinned against eviction, so every
        /// held reference stays valid — std::list storage keeps it
        /// stable across unrelated inserts and evictions.
        std::size_t waiters = 0;
        /// Approximate resident footprint, set when the slot turns kReady.
        std::size_t bytes = 0;
        SubsystemSolution solution;
    };
    /// What an entry matches on. `model` shares the caller's arrays.
    struct Key {
        std::uint64_t hash = 0;
        std::string options;  // the encoded options block
        CtmdpModel model;
    };
    using Entry = std::pair<Key, Slot>;
    using EntryIter = std::list<Entry>::iterator;

    /// Move `pos` to the front of the recency list. Caller holds mutex_.
    void touch(EntryIter pos);
    /// Evict LRU unpinned entries until within the byte budget (best
    /// effort — pinned entries are skipped). Caller holds mutex_.
    void evict_over_budget();
    /// Drop one entry: index and byte accounting. Caller holds mutex_.
    /// Returns the iterator past the erased entry.
    EntryIter drop_entry(EntryIter pos);

    mutable std::mutex mutex_;
    std::condition_variable slot_ready_;
    std::list<Entry> entries_;  // front = most recently used
    // Hash -> entries with that hash (more than one only on a collision).
    // Recency, and so eviction order, lives in entries_.
    std::multimap<std::uint64_t, EntryIter> index_;
    std::size_t byte_budget_ = 0;
    std::size_t hits_ = 0;
    std::size_t misses_ = 0;
    std::size_t evictions_ = 0;
    std::size_t bytes_resident_ = 0;
};

}  // namespace socbuf::ctmdp
