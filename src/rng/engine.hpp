// Reproducible random streams. Every stochastic component in socbuf draws
// from a RandomEngine spawned off a single experiment seed, so simulations
// are bit-reproducible across runs and machines.
#pragma once

#include <cstdint>
#include <random>

namespace socbuf::rng {

/// SplitMix64 step — used to derive well-separated child seeds.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

/// A seeded mt19937_64 with the distributions socbuf needs.
class RandomEngine {
public:
    explicit RandomEngine(std::uint64_t seed);

    /// Child engine whose stream is decorrelated from this one; calling with
    /// the same `stream_id` twice yields the same child.
    [[nodiscard]] RandomEngine spawn(std::uint64_t stream_id) const;

    /// U(0,1), never exactly 0 or 1.
    double uniform();

    /// U(lo,hi).
    double uniform(double lo, double hi);

    /// Exponential with the given rate (mean 1/rate). Requires rate > 0.
    double exponential(double rate);

    /// Integer in [lo, hi] inclusive. Requires lo <= hi.
    long uniform_int(long lo, long hi);

    /// Underlying engine, for std distributions not wrapped here.
    std::mt19937_64& raw() { return gen_; }

    [[nodiscard]] std::uint64_t seed() const { return seed_; }

private:
    std::uint64_t seed_;
    std::mt19937_64 gen_;
};

}  // namespace socbuf::rng
