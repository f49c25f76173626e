#include "ctmdp/solve_cache.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

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

/// Bit-exact double encoding: two tolerances that differ in the last ulp
/// are different options and must not share a cache entry.
void append_double(std::string& out, double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    append_u64(out, bits);
}

/// The options block: every knob that can change a solve's result bits.
std::string encode_options(const DispatchOptions& options) {
    std::string block;
    block.push_back('D');
    append_size(block, static_cast<std::size_t>(options.choice));
    append_size(block, options.lp_pair_limit);
    append_size(block, options.pi_state_limit);
    const SolverOptions& so = options.solver;
    append_double(block, so.lp.unvisited_state_tolerance);
    append_double(block, so.lp.simplex.pivot_tolerance);
    append_double(block, so.lp.simplex.cost_tolerance);
    append_double(block, so.lp.simplex.feasibility_tolerance);
    append_size(block, so.lp.simplex.max_iterations);
    append_size(block, so.lp.simplex.stall_before_bland);
    append_double(block, so.lp.simplex.rhs_perturbation);
    append_double(block, so.vi.tolerance);
    append_size(block, so.vi.max_iterations);
    append_size(block, so.vi.reference_state);
    append_size(block, so.pi.max_policy_updates);
    append_size(block, so.pi.reference_state);
    append_double(block, so.pi.improvement_tolerance);
    // The banded evaluation is a different elimination order (tolerance-
    // level different bits), and Gauss-Seidel follows a different VI
    // trajectory, so both are part of the key. vi.executor and
    // vi.parallel_min_states are schedule-only — bit-identical results
    // for any worker count — and deliberately are not encoded.
    append_size(block, so.pi.banded_evaluation ? 1 : 0);
    append_size(block, static_cast<std::size_t>(so.vi.sweep));
    return block;
}

/// One-lane 64-bit hash over 64-bit words, with xxHash64's round and
/// avalanche. It only picks cache candidates, so collisions cost a failed
/// comparison, not a wrong answer.
class Hasher {
public:
    void word(std::uint64_t w) {
        h_ += w * kPrime2;
        h_ = (h_ << 31) | (h_ >> 33);
        h_ *= kPrime1;
    }

    template <typename T>
    void array(const std::vector<T>& values) {
        static_assert(sizeof(T) == sizeof(std::uint64_t),
                      "model arrays hold 64-bit words");
        word(values.size());
        for (const T& v : values) {
            std::uint64_t bits = 0;
            std::memcpy(&bits, &v, sizeof(bits));
            word(bits);
        }
    }

    void bytes(const std::string& s) {
        word(s.size());
        for (std::size_t i = 0; i < s.size(); i += sizeof(std::uint64_t)) {
            std::uint64_t bits = 0;
            std::memcpy(&bits, s.data() + i,
                        std::min(sizeof(bits), s.size() - i));
            word(bits);
        }
    }

    [[nodiscard]] std::uint64_t finish() const {
        std::uint64_t h = h_;
        h ^= h >> 33;
        h *= kPrime2;
        h ^= h >> 29;
        h *= kPrime3;
        h ^= h >> 32;
        return h;
    }

private:
    static constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
    static constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
    static constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
    std::uint64_t h_ = kPrime1;
};

std::uint64_t key_hash(const CtmdpModel& model, const std::string& options) {
    Hasher h;
    h.word(model.extra_cost_count());
    h.array(model.pair_offsets());
    h.array(model.transition_offsets());
    h.array(model.targets());
    h.array(model.rates());
    h.array(model.costs());
    h.array(model.extra_costs());
    h.bytes(options);
    return h.finish();
}

/// Bitwise equality: doubles compare by representation, so one ulp or
/// +0.0 vs -0.0 is a difference.
template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool same_model(const CtmdpModel& a, const CtmdpModel& b) {
    return a.extra_cost_count() == b.extra_cost_count() &&
           same_bits(a.pair_offsets(), b.pair_offsets()) &&
           same_bits(a.transition_offsets(), b.transition_offsets()) &&
           same_bits(a.targets(), b.targets()) &&
           same_bits(a.rates(), b.rates()) &&
           same_bits(a.costs(), b.costs()) &&
           same_bits(a.extra_costs(), b.extra_costs());
}

/// Approximate resident footprint of one solved entry: the model arrays
/// (once — the entry shares them with every other handle to the model),
/// the options block, the solution's vectors, and fixed per-entry
/// bookkeeping. An estimate, not an audit — it ignores allocator slop —
/// but it is a pure function of the entry's contents, so the total is
/// deterministic for a given resident set.
std::size_t approx_entry_bytes(const CtmdpModel& model,
                               const std::string& options,
                               const SubsystemSolution& solution) {
    std::size_t bytes = (model.pair_offsets().size() +
                         model.transition_offsets().size() +
                         model.targets().size()) *
                        sizeof(std::size_t);
    bytes += (model.rates().size() + model.costs().size() +
              model.extra_costs().size()) *
             sizeof(double);
    bytes += options.size();
    bytes += sizeof(std::pair<const std::uint64_t, void*>);  // index node
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

std::string solve_fingerprint(const CtmdpModel& model,
                              const DispatchOptions& options) {
    const std::string block = encode_options(options);
    std::string key;
    append_u64(key, key_hash(model, block));
    return key + block;
}

SolveCache::SolveCache(std::size_t byte_budget) : byte_budget_(byte_budget) {}

void SolveCache::touch(EntryIter pos) {
    entries_.splice(entries_.begin(), entries_, pos);
}

SolveCache::EntryIter SolveCache::drop_entry(EntryIter pos) {
    bytes_resident_ -= pos->second.bytes;
    auto mapped = index_.lower_bound(pos->first.hash);
    while (mapped->second != pos) ++mapped;
    index_.erase(mapped);
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
    std::string block = encode_options(options);
    const std::uint64_t hash = key_hash(model, block);
    std::unique_lock<std::mutex> lock(mutex_);
    EntryIter pos = entries_.end();
    const auto [first, last] = index_.equal_range(hash);
    for (auto mapped = first; mapped != last; ++mapped) {
        const Key& key = mapped->second->first;
        if (key.options == block && same_model(key.model, model)) {
            pos = mapped->second;
            break;
        }
    }
    if (pos == entries_.end()) {
        entries_.emplace_front(Key{hash, std::move(block), model}, Slot{});
        pos = entries_.begin();
        index_.emplace(hash, pos);
    }
    // The list iterator (and the Slot it points to) stays valid across
    // concurrent inserts and evictions of *other* entries, and this entry
    // is pinned below (kSolving or waiters > 0) whenever the lock is
    // dropped, so it can be held through the waits.
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
        slot.bytes =
            approx_entry_bytes(pos->first.model, pos->first.options, solution);
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
