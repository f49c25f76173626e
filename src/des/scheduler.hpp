// Discrete-event simulation kernel: a binary min-heap of typed POD events
// with stable FIFO tie-breaking and bounded runs. The architecture
// simulator (sim/) only ever schedules two kinds of event — a flow's next
// arrival and a bus's service completion — so an event is plain data
// {time, seq, kind, index} and the caller dispatches on `kind`. With at
// most one pending event per flow and per bus, the heap never outgrows
// what reserve() set aside, whatever the horizon.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace socbuf::des {

enum class EventKind : std::uint8_t {
    kArrival,            // index = flow id
    kServiceCompletion,  // index = bus id
};

struct Event {
    double time = 0.0;
    std::uint64_t seq = 0;  // schedule order; breaks ties among equal times
    EventKind kind = EventKind::kArrival;
    std::size_t index = 0;
};

/// Event-driven scheduler. Events fire in (time, schedule order).
class Scheduler {
public:
    /// Set aside room for `events` simultaneously pending events.
    void reserve(std::size_t events) { heap_.reserve(events); }

    /// Schedule an event of `kind` for `index` at absolute time `when`
    /// (>= now).
    void schedule_at(double when, EventKind kind, std::size_t index);

    /// Schedule an event `delay` time units from now (delay >= 0).
    void schedule_after(double delay, EventKind kind, std::size_t index);

    /// Current simulation time.
    [[nodiscard]] double now() const { return now_; }

    /// Number of pending events.
    [[nodiscard]] std::size_t pending() const { return heap_.size(); }

    /// Pop the next event into `out` and advance now() to its time, unless
    /// the queue is empty or that event lies past `horizon`: then set now()
    /// to `horizon` and return false. Events exactly at `horizon` still
    /// fire.
    bool next(double horizon, Event& out);

    /// Total number of events fired so far.
    [[nodiscard]] std::uint64_t fired_count() const { return fired_; }

private:
    std::vector<Event> heap_;  // min-heap on (time, seq)
    double now_ = 0.0;
    std::uint64_t seq_ = 0;
    std::uint64_t fired_ = 0;
};

}  // namespace socbuf::des
