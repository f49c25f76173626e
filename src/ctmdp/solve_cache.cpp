#include "ctmdp/solve_cache.hpp"

#include <cstdint>
#include <cstring>

namespace socbuf::ctmdp {

namespace {

void append_u64(std::string& out, std::uint64_t v) {
    char bytes[sizeof(v)];
    std::memcpy(bytes, &v, sizeof(v));
    out.append(bytes, sizeof(v));
}

void append_size(std::string& out, std::size_t v) {
    append_u64(out, static_cast<std::uint64_t>(v));
}

/// Bit-exact double encoding: two rates that differ in the last ulp are
/// different models and must not share a cache entry.
void append_double(std::string& out, double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    append_u64(out, bits);
}

}  // namespace

std::string solve_fingerprint(const CtmdpModel& model,
                              const DispatchOptions& options) {
    const std::size_t n = model.state_count();
    const std::size_t n_extra = model.extra_cost_count();
    const auto& pair_offset = model.pair_offsets();
    const auto& trans_offset = model.transition_offsets();
    const auto& target = model.targets();
    const auto& rate = model.rates();
    const auto& extra = model.extra_costs();
    std::string key;
    // Reserve the model block's exact size (plus room for the options
    // block): on a 16384-state model the key is ~5.6 MB, and growing into
    // it by doubling would hold up to twice that per in-flight solve.
    key.reserve(1 + 8 * (2 + n + (3 + n_extra) * model.pair_count() +
                         2 * model.transition_count()) +
                256);

    key.push_back('M');
    append_size(key, n);
    append_size(key, n_extra);
    for (std::size_t s = 0; s < n; ++s) {
        append_size(key, pair_offset[s + 1] - pair_offset[s]);
        for (std::size_t p = pair_offset[s]; p < pair_offset[s + 1]; ++p) {
            append_double(key, model.costs()[p]);
            append_size(key, n_extra);
            for (std::size_t k = 0; k < n_extra; ++k)
                append_double(key, extra[p * n_extra + k]);
            append_size(key, trans_offset[p + 1] - trans_offset[p]);
            for (std::size_t k = trans_offset[p]; k < trans_offset[p + 1];
                 ++k) {
                append_size(key, target[k]);
                append_double(key, rate[k]);
            }
        }
    }

    key.push_back('D');
    append_size(key, static_cast<std::size_t>(options.choice));
    append_size(key, options.lp_pair_limit);
    append_size(key, options.pi_state_limit);
    const SolverOptions& so = options.solver;
    append_double(key, so.lp.unvisited_state_tolerance);
    append_double(key, so.lp.simplex.pivot_tolerance);
    append_double(key, so.lp.simplex.cost_tolerance);
    append_double(key, so.lp.simplex.feasibility_tolerance);
    append_size(key, so.lp.simplex.max_iterations);
    append_size(key, so.lp.simplex.stall_before_bland);
    append_double(key, so.lp.simplex.rhs_perturbation);
    append_double(key, so.vi.tolerance);
    append_size(key, so.vi.max_iterations);
    append_size(key, so.vi.reference_state);
    append_size(key, so.pi.max_policy_updates);
    append_size(key, so.pi.reference_state);
    append_double(key, so.pi.improvement_tolerance);
    // The banded evaluation is a different elimination order (tolerance-
    // level different bits), so it is part of the key.
    append_size(key, so.pi.banded_evaluation ? 1 : 0);
    // The sweep variant changes result bits (Gauss-Seidel follows a
    // different trajectory), so it is part of the key — but appended only
    // when non-default, keeping every pre-existing Jacobi key (and the
    // bytes_resident accounting derived from key sizes) byte-identical.
    // No collision is possible: untagged keys are 2 + 8k bytes long while
    // tagged keys are 11 + 8k, distinct residues mod 8. vi.executor and
    // vi.parallel_min_states are schedule-only — bit-identical results
    // for any worker count — and deliberately are not fingerprinted.
    if (so.vi.sweep != ViSweep::kJacobi) {
        key.push_back('G');
        append_size(key, static_cast<std::size_t>(so.vi.sweep));
    }
    return key;
}

namespace {

/// Approximate resident footprint of one solved entry: both stored copies
/// of the key (list node + index), the solution's vectors, and fixed
/// per-entry bookkeeping. An estimate, not an audit — it ignores
/// allocator slop — but it is a pure function of the entry's contents,
/// so the total is deterministic for a given resident set.
std::size_t approx_entry_bytes(const std::string& key,
                               const SubsystemSolution& solution) {
    std::size_t bytes = 2 * key.size();
    bytes += sizeof(std::pair<const std::string, void*>) * 2;  // map nodes
    bytes += solution.stationary.size() * sizeof(double);
    bytes += solution.occupation.size() * sizeof(double);
    bytes += solution.bias.size() * sizeof(double);
    for (std::size_t s = 0; s < solution.policy.state_count(); ++s)
        bytes += solution.policy.distribution(s).size() * sizeof(double) +
                 sizeof(std::vector<double>);
    bytes += sizeof(SubsystemSolution);
    return bytes;
}

}  // namespace

SolveCache::SolveCache(std::size_t byte_budget) : byte_budget_(byte_budget) {}

void SolveCache::touch(EntryIter pos) {
    entries_.splice(entries_.begin(), entries_, pos);
}

SolveCache::EntryIter SolveCache::drop_entry(EntryIter pos) {
    bytes_resident_ -= pos->second.bytes;
    index_.erase(pos->first);
    return entries_.erase(pos);
}

void SolveCache::evict_over_budget() {
    if (byte_budget_ == 0) return;
    auto candidate = entries_.end();
    while (bytes_resident_ > byte_budget_) {
        if (candidate == entries_.begin()) break;
        --candidate;
        // The front entry is the one the completing solve just touched;
        // when pinned entries crowd the back the scan could otherwise
        // reach it, and every solve would self-evict at tight
        // budgets. Sparing it means residency can transiently exceed
        // the budget instead — the documented best-effort trade.
        if (candidate == entries_.begin()) break;
        const Slot& slot = candidate->second;
        // Only settled, unwatched entries may go; in-flight solves and
        // slots other threads hold references into are pinned.
        if (slot.state != Slot::kReady || slot.waiters != 0) continue;
        candidate = drop_entry(candidate);
        ++evictions_;
    }
}

SubsystemSolution SolveCache::solve(SolverRegistry& registry,
                                    const CtmdpModel& model,
                                    const DispatchOptions& options) {
    const std::string key = solve_fingerprint(model, options);
    std::unique_lock<std::mutex> lock(mutex_);
    auto mapped = index_.find(key);
    if (mapped == index_.end()) {
        entries_.emplace_front(key, Slot{});
        mapped = index_.emplace(key, entries_.begin()).first;
    }
    // The list iterator (and the Slot it points to) stays valid across
    // concurrent inserts and evictions of *other* entries, and this entry
    // is pinned below (kSolving or waiters > 0) whenever the lock is
    // dropped, so it can be held through the waits.
    const EntryIter pos = mapped->second;
    Slot& slot = pos->second;
    for (;;) {
        if (slot.state == Slot::kReady) {
            ++hits_;
            touch(pos);
            // Reclaim over-budget residue here too: when an eviction was
            // blocked by a slot that was pinned at the time (in-flight
            // solve, parked waiter, failed-slot husk), the residency
            // stays over budget until *some* bookkeeping event retries —
            // with eviction only on the insert path, a hit-only tail
            // would keep the stale entry resident forever.
            evict_over_budget();
            return slot.solution;
        }
        if (slot.state == Slot::kUnsolved) break;  // ours to claim
        // Another thread is solving this key: wait and share its result
        // instead of duplicating the work. Every lookup counts exactly
        // one hit (served a solution) or one miss (claimed the solve), so
        // with an unlimited budget the totals are independent of the
        // thread interleaving.
        ++slot.waiters;
        slot_ready_.wait(lock, [&] { return slot.state != Slot::kSolving; });
        --slot.waiters;
        // kReady: the loop returns it as a hit. kUnsolved: the solving
        // thread failed, so claim the key ourselves (failures propagate
        // from some requester either way).
    }
    slot.state = Slot::kSolving;
    ++misses_;

    lock.unlock();
    try {
        SubsystemSolution solution = registry.solve(model, options);
        lock.lock();
        slot.solution = solution;
        slot.bytes = approx_entry_bytes(pos->first, solution);
        bytes_resident_ += slot.bytes;
        slot.state = Slot::kReady;
        touch(pos);
        evict_over_budget();
        slot_ready_.notify_all();
        return solution;
    } catch (...) {
        lock.lock();
        slot.state = Slot::kUnsolved;
        if (slot.waiters == 0) {
            // Nobody is watching the failed slot: drop the husk so a
            // failed key costs no residency. Waiters, if any, re-claim
            // it instead (the slot must stay alive for them).
            drop_entry(pos);
        }
        // Same reclamation as the hit path: this failure may be the last
        // bookkeeping event of the batch, and entries an earlier
        // eviction had to skip (pinned then, settled now) must not
        // outlive the budget because of it.
        evict_over_budget();
        slot_ready_.notify_all();
        throw;
    }
}

SolveCacheStats SolveCache::stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    SolveCacheStats out;
    out.hits = hits_;
    out.misses = misses_;
    out.evictions = evictions_;
    out.bytes_resident = bytes_resident_;
    return out;
}

std::size_t SolveCache::size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t ready = 0;
    for (const auto& entry : entries_)
        if (entry.second.state == Slot::kReady) ++ready;
    return ready;
}

}  // namespace socbuf::ctmdp
