#include "des/stats.hpp"

#include "util/contracts.hpp"

#include <algorithm>

namespace socbuf::des {

void Tally::observe(double value) {
    ++n_;
    total_ += value;
    mean_ += (value - mean_) / static_cast<double>(n_);
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
}

void TimeWeighted::update(double now, double value) {
    if (!started_) {
        started_ = true;
        start_time_ = now;
        last_time_ = now;
        value_ = value;
        max_ = value;
        return;
    }
    SOCBUF_REQUIRE_MSG(now >= last_time_, "time went backwards");
    weighted_sum_ += value_ * (now - last_time_);
    last_time_ = now;
    value_ = value;
    max_ = std::max(max_, value);
}

double TimeWeighted::average(double now) const {
    SOCBUF_REQUIRE_MSG(started_, "average of a signal with no updates");
    const double elapsed = now - start_time_;
    if (elapsed <= 0.0) return value_;
    const double tail = value_ * (now - last_time_);
    return (weighted_sum_ + tail) / elapsed;
}

}  // namespace socbuf::des
