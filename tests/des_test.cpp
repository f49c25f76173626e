#include "des/scheduler.hpp"
#include "des/stats.hpp"
#include "util/contracts.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace sd = socbuf::des;

namespace {

constexpr double kNever = 1e300;

/// Drain every event up to `horizon`, recording (kind, index) in firing
/// order.
std::vector<std::pair<sd::EventKind, std::size_t>> drain(
    sd::Scheduler& sched, double horizon) {
    std::vector<std::pair<sd::EventKind, std::size_t>> fired;
    sd::Event event;
    while (sched.next(horizon, event))
        fired.emplace_back(event.kind, event.index);
    return fired;
}

std::vector<std::size_t> indices(
    const std::vector<std::pair<sd::EventKind, std::size_t>>& fired) {
    std::vector<std::size_t> out;
    for (const auto& [kind, index] : fired) out.push_back(index);
    return out;
}

}  // namespace

TEST(Scheduler, FiresInTimeOrder) {
    sd::Scheduler sched;
    sched.schedule_at(2.0, sd::EventKind::kArrival, 2);
    sched.schedule_at(1.0, sd::EventKind::kArrival, 1);
    sched.schedule_at(3.0, sd::EventKind::kServiceCompletion, 3);
    sd::Event event;
    ASSERT_TRUE(sched.next(kNever, event));
    EXPECT_EQ(event.index, 1u);
    EXPECT_DOUBLE_EQ(event.time, 1.0);
    EXPECT_DOUBLE_EQ(sched.now(), 1.0);
    EXPECT_EQ(indices(drain(sched, 3.0)), (std::vector<std::size_t>{2, 3}));
    EXPECT_DOUBLE_EQ(sched.now(), 3.0);
    EXPECT_EQ(sched.fired_count(), 3u);
    EXPECT_EQ(sched.pending(), 0u);
}

TEST(Scheduler, TieBreaksFifoAcrossKinds) {
    sd::Scheduler sched;
    const std::vector<std::pair<sd::EventKind, std::size_t>> scheduled{
        {sd::EventKind::kServiceCompletion, 4},
        {sd::EventKind::kArrival, 0},
        {sd::EventKind::kArrival, 7},
        {sd::EventKind::kServiceCompletion, 1},
        {sd::EventKind::kArrival, 3}};
    sched.schedule_at(0.5, sd::EventKind::kArrival, 99);
    sched.schedule_at(2.0, sd::EventKind::kArrival, 98);
    for (const auto& [kind, index] : scheduled)
        sched.schedule_at(1.0, kind, index);
    sd::Event first;
    ASSERT_TRUE(sched.next(kNever, first));
    EXPECT_EQ(first.index, 99u);
    const auto fired = drain(sched, 1.0);
    EXPECT_EQ(fired, scheduled);
    EXPECT_EQ(sched.pending(), 1u);
}

TEST(Scheduler, SeqCountsEverySchedule) {
    sd::Scheduler sched;
    sched.schedule_at(3.0, sd::EventKind::kArrival, 0);
    sched.schedule_after(1.0, sd::EventKind::kServiceCompletion, 0);
    sd::Event event;
    ASSERT_TRUE(sched.next(kNever, event));
    EXPECT_EQ(event.seq, 1u);
    EXPECT_EQ(event.kind, sd::EventKind::kServiceCompletion);
    ASSERT_TRUE(sched.next(kNever, event));
    EXPECT_EQ(event.seq, 0u);
}

TEST(Scheduler, HandlersMayScheduleMoreEvents) {
    // The simulator's pattern: each fired event schedules its successor,
    // so the pending set never grows past one event per source.
    sd::Scheduler sched;
    sched.reserve(1);
    sched.schedule_at(0.0, sd::EventKind::kArrival, 0);
    sd::Event event;
    int fired = 0;
    while (sched.next(kNever, event)) {
        ++fired;
        EXPECT_EQ(sched.pending(), 0u);
        if (fired < 10) sched.schedule_after(1.0, event.kind, event.index);
    }
    EXPECT_EQ(fired, 10);
    EXPECT_DOUBLE_EQ(sched.now(), kNever);
}

TEST(Scheduler, EventExactlyAtHorizonFires) {
    sd::Scheduler sched;
    sched.schedule_at(1.0, sd::EventKind::kArrival, 0);
    sched.schedule_at(5.0, sd::EventKind::kArrival, 1);
    EXPECT_EQ(indices(drain(sched, 5.0)), (std::vector<std::size_t>{0, 1}));
    EXPECT_DOUBLE_EQ(sched.now(), 5.0);
}

TEST(Scheduler, EventPastHorizonStaysPending) {
    sd::Scheduler sched;
    sched.schedule_at(1.0, sd::EventKind::kArrival, 0);
    sched.schedule_at(5.0, sd::EventKind::kServiceCompletion, 1);
    EXPECT_EQ(indices(drain(sched, 2.0)), (std::vector<std::size_t>{0}));
    EXPECT_DOUBLE_EQ(sched.now(), 2.0);  // time advances to the horizon
    EXPECT_EQ(sched.pending(), 1u);
    EXPECT_EQ(sched.fired_count(), 1u);
    EXPECT_EQ(indices(drain(sched, 5.0)), (std::vector<std::size_t>{1}));
}

TEST(Scheduler, PastSchedulingRejected) {
    sd::Scheduler sched;
    sched.schedule_at(5.0, sd::EventKind::kArrival, 0);
    EXPECT_THROW(sched.schedule_at(-1.0, sd::EventKind::kArrival, 0),
                 socbuf::util::ContractViolation);
    drain(sched, 5.0);
    EXPECT_THROW(sched.schedule_at(1.0, sd::EventKind::kArrival, 0),
                 socbuf::util::ContractViolation);
    EXPECT_THROW(
        sched.schedule_after(-1.0, sd::EventKind::kServiceCompletion, 0),
        socbuf::util::ContractViolation);
    sd::Event event;
    EXPECT_THROW(sched.next(4.0, event), socbuf::util::ContractViolation);
}

TEST(Scheduler, EmptyQueueFiresNothing) {
    sd::Scheduler sched;
    sd::Event event;
    EXPECT_FALSE(sched.next(10.0, event));
    EXPECT_DOUBLE_EQ(sched.now(), 10.0);
    EXPECT_EQ(sched.pending(), 0u);
    EXPECT_EQ(sched.fired_count(), 0u);
}

TEST(Tally, MeanAndExtrema) {
    sd::Tally t;
    for (double v : {2.0, 4.0, 6.0}) t.observe(v);
    EXPECT_EQ(t.count(), 3u);
    EXPECT_DOUBLE_EQ(t.mean(), 4.0);
    EXPECT_DOUBLE_EQ(t.min(), 2.0);
    EXPECT_DOUBLE_EQ(t.max(), 6.0);
    EXPECT_DOUBLE_EQ(t.total(), 12.0);
}

TEST(Tally, EmptyIsSafe) {
    const sd::Tally t;
    EXPECT_EQ(t.count(), 0u);
    EXPECT_DOUBLE_EQ(t.mean(), 0.0);
}

TEST(TimeWeighted, PiecewiseConstantAverage) {
    sd::TimeWeighted tw;
    tw.update(0.0, 0.0);
    tw.update(1.0, 2.0);  // signal was 0 on [0,1)
    tw.update(3.0, 1.0);  // signal was 2 on [1,3)
    // average over [0,4]: (0*1 + 2*2 + 1*1) / 4 = 1.25
    EXPECT_DOUBLE_EQ(tw.average(4.0), 1.25);
    EXPECT_DOUBLE_EQ(tw.current(), 1.0);
    EXPECT_DOUBLE_EQ(tw.max(), 2.0);
}

TEST(TimeWeighted, RejectsTimeTravel) {
    sd::TimeWeighted tw;
    tw.update(1.0, 1.0);
    EXPECT_THROW(tw.update(0.5, 2.0), socbuf::util::ContractViolation);
}
