#include "des/scheduler.hpp"

#include "util/contracts.hpp"

#include <algorithm>

namespace socbuf::des {

namespace {
// Heap order for std::push_heap/pop_heap: `a` sinks below `b` when it fires
// later — earliest time first, schedule order among equal times. A lambda,
// not a function pointer, so the heap operations inline it.
constexpr auto fires_later = [](const Event& a, const Event& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
};
}  // namespace

void Scheduler::schedule_at(double when, EventKind kind, std::size_t index) {
    SOCBUF_REQUIRE_MSG(when >= now_, "cannot schedule into the past");
    heap_.push_back(Event{when, seq_++, kind, index});
    std::push_heap(heap_.begin(), heap_.end(), fires_later);
}

void Scheduler::schedule_after(double delay, EventKind kind,
                               std::size_t index) {
    SOCBUF_REQUIRE_MSG(delay >= 0.0, "negative delay");
    schedule_at(now_ + delay, kind, index);
}

bool Scheduler::next(double horizon, Event& out) {
    SOCBUF_REQUIRE_MSG(horizon >= now_, "horizon is in the past");
    if (heap_.empty() || heap_.front().time > horizon) {
        now_ = horizon;
        return false;
    }
    std::pop_heap(heap_.begin(), heap_.end(), fires_later);
    out = heap_.back();
    heap_.pop_back();
    now_ = out.time;
    ++fired_;
    return true;
}

}  // namespace socbuf::des
