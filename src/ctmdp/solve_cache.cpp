#include "ctmdp/solve_cache.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
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
    bytes += sizeof(std::pair<const std::uint64_t, void*>);  // map node
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

SubsystemSolution SolveCache::solve(SolverRegistry& registry,
                                    const CtmdpModel& model,
                                    const DispatchOptions& options) {
    std::string block = encode_options(options);
    const std::uint64_t hash = key_hash(model, block);
    std::unique_lock<std::mutex> lock(mutex_);
    auto pos = entries_.end();
    const auto [first, last] = entries_.equal_range(hash);
    for (auto candidate = first; candidate != last; ++candidate) {
        const Entry& entry = candidate->second;
        if (entry.options == block && same_model(entry.model, model)) {
            pos = candidate;
            break;
        }
    }
    if (pos == entries_.end()) {
        pos = entries_.emplace(hash, Entry{});
        pos->second.options = std::move(block);
        pos->second.model = model;
    }
    // The map node stays put across concurrent inserts of other keys, and
    // nobody erases it while this lookup holds it (kSolving or
    // waiters > 0 whenever the lock is dropped), so the reference survives
    // the waits.
    Entry& entry = pos->second;
    for (;;) {
        if (entry.state == Entry::kReady) {
            ++hits_;
            return entry.solution;
        }
        if (entry.state == Entry::kUnsolved) break;  // ours to claim
        // Another thread is solving this key: wait and share its result
        // instead of duplicating the work. Every lookup counts exactly
        // one hit (served a solution) or one miss (claimed the solve), so
        // the totals are independent of the thread interleaving.
        ++entry.waiters;
        slot_ready_.wait(lock, [&] { return entry.state != Entry::kSolving; });
        --entry.waiters;
        // kReady: the loop returns it as a hit. kUnsolved: the solving
        // thread failed, so claim the key ourselves (failures propagate
        // from some requester either way).
    }
    entry.state = Entry::kSolving;
    ++misses_;

    lock.unlock();
    try {
        SubsystemSolution solution = registry.solve(model, options);
        lock.lock();
        entry.solution = solution;
        bytes_resident_ +=
            approx_entry_bytes(entry.model, entry.options, solution);
        entry.state = Entry::kReady;
        slot_ready_.notify_all();
        return solution;
    } catch (...) {
        lock.lock();
        entry.state = Entry::kUnsolved;
        // Nobody is watching the failed entry: drop the husk so a failed
        // key costs no residency. Waiters, if any, re-claim it instead
        // (the entry must stay alive for them).
        if (entry.waiters == 0) entries_.erase(pos);
        slot_ready_.notify_all();
        throw;
    }
}

SolveCacheStats SolveCache::stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    SolveCacheStats out;
    out.hits = hits_;
    out.misses = misses_;
    out.bytes_resident = bytes_resident_;
    return out;
}

std::size_t SolveCache::size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t ready = 0;
    for (const auto& [hash, entry] : entries_)
        if (entry.state == Entry::kReady) ++ready;
    return ready;
}

}  // namespace socbuf::ctmdp
