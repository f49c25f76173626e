#include "rng/engine.hpp"

#include "util/contracts.hpp"

#include <cmath>

namespace socbuf::rng {

std::uint64_t splitmix64(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

RandomEngine::RandomEngine(std::uint64_t seed) : seed_(seed) {
    // Run the seed through SplitMix64 so nearby seeds (0,1,2,...) give
    // uncorrelated mt19937 states.
    std::uint64_t s = seed;
    const std::uint64_t a = splitmix64(s);
    const std::uint64_t b = splitmix64(s);
    std::seed_seq seq{static_cast<std::uint32_t>(a),
                      static_cast<std::uint32_t>(a >> 32),
                      static_cast<std::uint32_t>(b),
                      static_cast<std::uint32_t>(b >> 32)};
    gen_.seed(seq);
}

RandomEngine RandomEngine::spawn(std::uint64_t stream_id) const {
    std::uint64_t s = seed_ ^ (0xA5A5A5A5DEADBEEFULL + stream_id);
    const std::uint64_t child = splitmix64(s) ^ splitmix64(s);
    return RandomEngine(child);
}

double RandomEngine::uniform() {
    // (0,1): rejection of the exact endpoints keeps log() calls safe.
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    double u = dist(gen_);
    while (u <= 0.0 || u >= 1.0) u = dist(gen_);
    return u;
}

double RandomEngine::uniform(double lo, double hi) {
    SOCBUF_REQUIRE_MSG(lo <= hi, "uniform: lo must be <= hi");
    return lo + (hi - lo) * uniform();
}

double RandomEngine::exponential(double rate) {
    SOCBUF_REQUIRE_MSG(rate > 0.0, "exponential: rate must be positive");
    return -std::log(uniform()) / rate;
}

long RandomEngine::uniform_int(long lo, long hi) {
    SOCBUF_REQUIRE_MSG(lo <= hi, "uniform_int: lo must be <= hi");
    std::uniform_int_distribution<long> dist(lo, hi);
    return dist(gen_);
}

std::size_t RandomEngine::discrete(const double* weights, std::size_t count) {
    SOCBUF_REQUIRE_MSG(count > 0, "discrete: no weights");
    double total = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
        SOCBUF_REQUIRE_MSG(weights[i] >= 0.0, "discrete: negative weight");
        total += weights[i];
    }
    SOCBUF_REQUIRE_MSG(total > 0.0, "discrete: all weights zero");
    double x = uniform() * total;
    for (std::size_t i = 0; i < count; ++i) {
        x -= weights[i];
        if (x <= 0.0) return i;
    }
    return count - 1;  // round-off fallback
}

}  // namespace socbuf::rng
