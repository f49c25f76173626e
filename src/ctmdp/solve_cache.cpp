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
    append_double(block, so.vi.tolerance);
    append_size(block, so.vi.max_iterations);
    append_size(block, so.pi.max_policy_updates);
    // The banded evaluation is a different elimination order (tolerance-
    // level different bits), and the Jacobi and Gauss-Seidel sweeps
    // follow different VI trajectories, so both are part of the key. vi.executor and
    // vi.parallel_min_states are schedule-only — bit-identical results
    // for any worker count — and deliberately are not encoded.
    append_size(block, so.pi.banded_evaluation ? 1 : 0);
    append_size(block, static_cast<std::size_t>(so.vi.sweep));
    return block;
}

/// Calls emit(word) for every element of `values`, as raw bits.
template <typename T, typename Emit>
void each_raw(const std::vector<T>& values, Emit&& emit) {
    static_assert(sizeof(T) == sizeof(std::uint64_t),
                  "model arrays hold 64-bit words");
    for (const T& v : values) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        emit(bits);
    }
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
        word(values.size());
        each_raw(values, [this](std::uint64_t w) { word(w); });
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
    h.array(model.pair_offsets());
    h.array(model.transition_offsets());
    h.array(model.targets());
    h.array(model.rates());
    h.array(model.costs());
    h.bytes(options);
    return h.finish();
}

// ---- Packed model keys ---------------------------------------------------
//
// A key is the model's five arrays, each streamed as 64-bit words in a
// form that repeats a lot in subsystem models (offset deltas are
// action and transition counts, relative targets are ± the occupancy
// strides, rates and costs are a handful of values), stored as
//   [u64 n][u8 d][n one-byte codes][d dictionary words]   1 <= d <= 255
//   [u64 n][u8 0][n raw words]                             otherwise
// Every field decodes back to the arrays, so equal keys mean bit-equal
// models.

constexpr std::size_t kMaxDictionary = 255;

/// Calls emit(offsets[i] - offsets[i - 1]) for every i, offsets[-1] = 0.
template <typename Emit>
void each_delta(const std::vector<std::size_t>& offsets, Emit&& emit) {
    std::size_t previous = 0;
    for (const std::size_t offset : offsets) {
        emit(static_cast<std::uint64_t>(offset - previous));
        previous = offset;
    }
}

/// Calls emit(target - source state) for every transition, wrapping.
/// The offsets must be the model's own (a frozen model's always are).
template <typename Emit>
void each_relative_target(const CtmdpModel& model, Emit&& emit) {
    const auto& pairs = model.pair_offsets();
    const auto& transitions = model.transition_offsets();
    const auto& targets = model.targets();
    for (std::size_t s = 0; s + 1 < pairs.size(); ++s)
        for (std::size_t t = transitions[pairs[s]];
             t < transitions[pairs[s + 1]]; ++t)
            emit(static_cast<std::uint64_t>(targets[t] - s));
}

/// Calls visit(n, each) for every array of a model's key, in key order:
/// `n` is the array's length and each(emit) streams its words. The
/// offsets come before the targets they make relative.
template <typename Visit>
void for_each_key_array(const CtmdpModel& model, Visit&& visit) {
    visit(model.pair_offsets().size(),
          [&](auto&& emit) { each_delta(model.pair_offsets(), emit); });
    visit(model.transition_offsets().size(), [&](auto&& emit) {
        each_delta(model.transition_offsets(), emit);
    });
    visit(model.targets().size(),
          [&](auto&& emit) { each_relative_target(model, emit); });
    visit(model.rates().size(),
          [&](auto&& emit) { each_raw(model.rates(), emit); });
    visit(model.costs().size(),
          [&](auto&& emit) { each_raw(model.costs(), emit); });
}

/// Flat open-addressed word -> code table with 256 slots: at most 255
/// codes, so a probe always ends on a free slot.
class Dictionary {
public:
    /// The code of `word`, adding it if new; false once the dictionary
    /// would exceed kMaxDictionary words.
    bool code(std::uint64_t word, std::uint8_t& out) {
        std::size_t slot = (word * 0x9E3779B97F4A7C15ULL) >> 56;
        for (;; slot = (slot + 1) & 0xFF) {
            Slot& entry = slots_[slot];
            if (entry.code_plus_one == 0) break;
            if (entry.word == word) {
                out = static_cast<std::uint8_t>(entry.code_plus_one - 1);
                return true;
            }
        }
        if (size_ == kMaxDictionary) return false;
        out = static_cast<std::uint8_t>(size_);
        words_[size_++] = word;
        slots_[slot] = {word, size_};
        return true;
    }

    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] const std::uint64_t* words() const { return words_; }

private:
    struct Slot {
        std::uint64_t word = 0;
        std::size_t code_plus_one = 0;  // 0: a free slot
    };
    Slot slots_[256] = {};
    std::uint64_t words_[kMaxDictionary] = {};  // in code order
    std::size_t size_ = 0;
};

/// Appends one array of `n` words (as streamed by `each`) to `out`.
template <typename Each>
void pack_array(std::string& out, std::size_t n, Each&& each) {
    append_size(out, n);
    const std::size_t header = out.size();
    out.push_back('\0');
    Dictionary dictionary;
    bool fits = true;
    out.resize(header + 1 + n);
    char* code = out.data() + header + 1;
    each([&](std::uint64_t word) {
        std::uint8_t c = 0;
        if (fits && (fits = dictionary.code(word, c)))
            *code++ = static_cast<char>(c);
    });
    if (fits && n > 0) {
        out[header] = static_cast<char>(dictionary.size());
        for (std::size_t k = 0; k < dictionary.size(); ++k)
            append_u64(out, dictionary.words()[k]);
        return;
    }
    // Too many distinct words (or none at all): raw words, marked d = 0.
    out.resize(header + 1);
    out.reserve(header + 1 + n * sizeof(std::uint64_t));
    each([&](std::uint64_t word) { append_u64(out, word); });
}

/// Sequential reader over a packed key.
class KeyReader {
public:
    explicit KeyReader(const std::string& key) : key_(key) {}

    std::uint64_t word() {
        std::uint64_t w = 0;
        std::memcpy(&w, key_.data() + pos_, sizeof(w));
        pos_ += sizeof(w);
        return w;
    }

    /// Whether the next packed array holds exactly the `n` words `each`
    /// streams. Streams the stored codes (or raw words) against them; no
    /// array is decoded.
    template <typename Each>
    bool same_array(std::size_t n, Each&& each) {
        if (word() != n) return false;
        const auto d = static_cast<unsigned char>(key_[pos_++]);
        bool same = true;
        std::size_t i = 0;
        if (d == 0) {
            const char* raw = key_.data() + pos_;
            each([&](std::uint64_t w) {
                std::uint64_t stored = 0;
                std::memcpy(&stored, raw + i++ * sizeof(w), sizeof(w));
                same &= stored == w;
            });
            pos_ += n * sizeof(std::uint64_t);
            return same;
        }
        const auto* codes =
            reinterpret_cast<const unsigned char*>(key_.data() + pos_);
        std::uint64_t dictionary[kMaxDictionary] = {};
        std::memcpy(dictionary, key_.data() + pos_ + n,
                    d * sizeof(std::uint64_t));
        each([&](std::uint64_t w) { same &= dictionary[codes[i++]] == w; });
        pos_ += n + d * sizeof(std::uint64_t);
        return same;
    }

private:
    const std::string& key_;
    std::size_t pos_ = 0;
};

/// Approximate resident footprint of one solved entry: the packed model
/// key, the options block, the kept result vectors, and fixed per-entry
/// bookkeeping. An estimate, not an audit — it ignores allocator slop —
/// but it is a pure function of the entry's contents, so the total is
/// deterministic for a given resident set.
std::size_t approx_entry_bytes(const std::string& packed_model,
                               const std::string& options,
                               const SubsystemSolution& solution) {
    std::size_t bytes = packed_model.size() + options.size();
    bytes += sizeof(std::pair<const std::uint64_t, void*>);  // map node
    bytes += solution.stationary.size() * sizeof(double);
    bytes += solution.occupation.size() * sizeof(double);
    bytes += sizeof(SubsystemSolution);
    return bytes;
}

}  // namespace

std::string packed_model_key(const CtmdpModel& model) {
    std::string key;
    for_each_key_array(model, [&](std::size_t n, auto&& each) {
        pack_array(key, n, each);
    });
    return key;
}

bool matches_packed_key(const std::string& key, const CtmdpModel& model) {
    KeyReader reader(key);
    bool same = true;
    for_each_key_array(model, [&](std::size_t n, auto&& each) {
        same = same && reader.same_array(n, each);
    });
    return same;
}

std::string solve_fingerprint(const CtmdpModel& model,
                              const DispatchOptions& options) {
    const std::string block = encode_options(options);
    std::string key;
    append_u64(key, key_hash(model, block));
    return key + block;
}

SubsystemSolution SolveCache::solve(const SolverRegistry& registry,
                                    const CtmdpModel& model,
                                    const DispatchOptions& options) {
    std::string block = encode_options(options);
    const std::uint64_t hash = key_hash(model, block);
    const auto find = [&] {
        const auto [first, last] = entries_.equal_range(hash);
        for (auto candidate = first; candidate != last; ++candidate) {
            const Entry& entry = candidate->second;
            if (entry.options == block &&
                matches_packed_key(entry.model, model))
                return candidate;
        }
        return entries_.end();
    };
    std::unique_lock<std::mutex> lock(mutex_);
    auto pos = find();
    if (pos == entries_.end()) {
        // A new key: pack it outside the lock, then look again — another
        // requester of the same key may have inserted it meanwhile.
        lock.unlock();
        std::string packed = packed_model_key(model);
        lock.lock();
        pos = find();
        if (pos == entries_.end()) {
            pos = entries_.emplace(hash, Entry{});
            pos->second.options = std::move(block);
            pos->second.model = std::move(packed);
        }
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
        // Keep only what consumers read. The miss drops the value
        // function and the per-state policy vectors too, so it returns
        // exactly what every later hit on this entry will.
        solution.bias = linalg::Vector();
        solution.policy = RandomizedPolicy();
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
