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
// Exactness without holding the model: an entry keeps a packed copy of
// the model's arrays, the encoded options block, and a 64-bit hash of the
// raw arrays and options. The packed copy is lossless and self-delimiting
// — offsets as deltas, targets relative to their source state, rates and
// costs as raw bits, each array then dictionary-coded to one byte per
// element when it has at most 255 distinct words (raw words otherwise) —
// so a subsystem model's key is a fraction of its arrays (a 16384-state
// cluster bus: about 1.3 MB against 10.2 MB) and the caller's model is
// freed once its solve returns. A lookup hashes the caller's arrays
// outside the lock, allocation-free, and on a hash match streams the
// stored codes against the live arrays, word for word. Doubles therefore
// compare bit for bit: a one-ulp rate change or a +0.0 vs -0.0 cost is a
// different model. The hash only picks candidates; a collision costs one
// failed comparison, never a wrong result. A key is packed only on a miss,
// outside the lock.
//
// Each key is solved exactly once: the first requester claims it and
// solves *outside* the lock while later requesters wait on the in-flight
// solve and share its result. No work is duplicated, and the counters are
// scheduling-independent — for a fixed set of lookups, misses always
// equal the number of distinct keys and hits the remainder, whatever the
// thread interleaving (which is why batch reports can include them and
// stay bit-identical across worker counts).
//
// An entry keeps only what the pipeline reads of a solution: gain,
// stationary distribution, occupation measure, iterations, switching
// states, solved_by and converged. The bias and the per-state policy
// vectors are dropped on the miss as well as served empty on every hit,
// so a hit stays bit-identical to the miss that filled it.
//
// The cache is insert-only and unbounded: a solved entry stays for the
// cache's lifetime (a batch). A run that cannot afford the residency
// turns the cache off instead (BatchOptions::use_solve_cache).
#pragma once

#include "ctmdp/solver.hpp"

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace socbuf::ctmdp {

/// The cache's per-entry key for (model, options): the 8-byte hash of the
/// model arrays and options, followed by the encoded options block (every
/// solve-relevant dispatch/solver knob, doubles bit-exact). Different
/// fingerprints mean different entries; equal ones are confirmed against
/// the entry's packed model, array by array, before a hit is served.
[[nodiscard]] std::string solve_fingerprint(const CtmdpModel& model,
                                            const DispatchOptions& options);

/// The packed key a cache entry keeps for `model` (see the file comment).
/// Lossless: two models share a key exactly when their arrays are
/// bit-equal.
[[nodiscard]] std::string packed_model_key(const CtmdpModel& model);

/// Whether `key` (a packed_model_key result) is packed_model_key(model),
/// checked by streaming the stored codes against the model's arrays
/// (nothing is decoded); the first differing array ends the check.
[[nodiscard]] bool matches_packed_key(const std::string& key,
                                      const CtmdpModel& model);

struct SolveCacheStats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    /// Approximate bytes held by resident (solved) entries: packed model
    /// keys, options blocks, the stationary and occupation vectors, and
    /// per-entry bookkeeping.
    /// Deterministic given the set of distinct keys solved.
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
    /// Return the cached solution for (model, options) or solve through
    /// `registry` and remember the result, with `bias` and `policy` empty
    /// either way (see the file comment). The registry runs only on
    /// misses. A solver failure propagates to the claiming requester and
    /// leaves the slot reclaimable: concurrent waiters retry the solve
    /// instead of hanging, and the counters stay consistent (every lookup
    /// is exactly one hit or one miss).
    [[nodiscard]] SubsystemSolution solve(const SolverRegistry& registry,
                                          const CtmdpModel& model,
                                          const DispatchOptions& options);

    [[nodiscard]] SolveCacheStats stats() const;
    /// Number of solved entries held.
    [[nodiscard]] std::size_t size() const;

private:
    /// One (model, options) key and its solve.
    struct Entry {
        enum State { kUnsolved, kSolving, kReady };
        std::string options;  // the encoded options block
        std::string model;    // the packed model arrays
        State state = kUnsolved;
        /// Threads blocked on this entry's in-flight solve. A failed
        /// entry with waiters stays for them to re-claim; without, it is
        /// the one entry the cache ever erases.
        std::size_t waiters = 0;
        SubsystemSolution solution;
    };

    mutable std::mutex mutex_;
    std::condition_variable slot_ready_;
    // Hash -> entries with that hash (more than one only on a collision).
    // Map nodes never move, so a reference into an entry stays valid
    // across every other insert and erase while the lock is dropped.
    std::multimap<std::uint64_t, Entry> entries_;
    std::size_t hits_ = 0;
    std::size_t misses_ = 0;
    std::size_t bytes_resident_ = 0;
};

}  // namespace socbuf::ctmdp
