// Online statistics for simulations: event tallies and time-weighted
// averages (queue lengths, utilizations).
#pragma once

#include <cstdint>
#include <limits>

namespace socbuf::des {

/// Running mean and extrema over discrete observations (Welford's
/// mean update).
class Tally {
public:
    void observe(double value);

    [[nodiscard]] std::uint64_t count() const { return n_; }
    [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
    [[nodiscard]] double min() const { return n_ > 0 ? min_ : 0.0; }
    [[nodiscard]] double max() const { return n_ > 0 ? max_ : 0.0; }
    [[nodiscard]] double total() const { return total_; }

private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double total_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/// Time-weighted average of a piecewise-constant signal, e.g. queue length.
class TimeWeighted {
public:
    /// Record that the signal changed to `value` at time `now`.
    void update(double now, double value);

    /// Average over [start, now]; requires at least one update.
    [[nodiscard]] double average(double now) const;

    [[nodiscard]] double current() const { return value_; }
    [[nodiscard]] double max() const { return max_; }

private:
    double value_ = 0.0;
    double last_time_ = 0.0;
    double weighted_sum_ = 0.0;
    double start_time_ = 0.0;
    double max_ = 0.0;
    bool started_ = false;
};

}  // namespace socbuf::des
