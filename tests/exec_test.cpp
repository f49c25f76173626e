#include "exec/executor.hpp"
#include "exec/parallel.hpp"
#include "exec/task_graph.hpp"
#include "exec/thread_pool.hpp"
#include "util/contracts.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <future>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace se = socbuf::exec;

TEST(ThreadPool, ResolveThreadCount) {
    EXPECT_EQ(se::resolve_thread_count(1), 1u);
    EXPECT_EQ(se::resolve_thread_count(7), 7u);
    // 0 = hardware concurrency, which is always at least one worker.
    EXPECT_GE(se::resolve_thread_count(0), 1u);
}

TEST(ThreadPool, RunsEverySubmittedJobExactlyOnce) {
    std::atomic<int> counter{0};
    {
        se::ThreadPool pool(4);
        EXPECT_EQ(pool.size(), 4u);
        for (int i = 0; i < 100; ++i)
            pool.submit([&counter] { ++counter; });
        pool.wait_idle();
        EXPECT_EQ(counter.load(), 100);
    }  // destructor drains and joins
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, DestructorDrainsPendingJobs) {
    std::atomic<int> counter{0};
    {
        se::ThreadPool pool(2);
        for (int i = 0; i < 50; ++i) pool.submit([&counter] { ++counter; });
    }
    EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, RejectsEmptyJobs) {
    se::ThreadPool pool(1);
    EXPECT_THROW(pool.submit(nullptr), socbuf::util::ContractViolation);
}

TEST(ThreadPool, RejectsThreadCountsPastTheMaximum) {
    EXPECT_EQ(se::resolve_thread_count(se::kMaxThreads), se::kMaxThreads);
    // A runaway literal (--threads 18446744073709551615) must fail the
    // contract up front, not die inside std::vector growth.
    EXPECT_THROW((void)se::resolve_thread_count(se::kMaxThreads + 1),
                 socbuf::util::ContractViolation);
}

TEST(ThreadPool, ClaimsHigherPrioritiesFirstAndKeepsFifoWithinALevel) {
    // One worker, parked on a gate job: everything submitted while it is
    // busy queues up, and the release order *is* the claim policy —
    // kEvaluation first, then kSizing, then kDefault, FIFO within each
    // level, regardless of submission order.
    se::ThreadPool pool(1);
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    std::promise<void> parked;
    pool.submit([open, &parked] {
        parked.set_value();
        open.wait();
    });
    // The ordered jobs must all be *queued* while the worker sits on the
    // gate; submitting before the worker has claimed it would let the
    // claim loop pick whichever job happens to be queued at wake-up.
    parked.get_future().wait();

    std::mutex order_mutex;
    std::vector<std::string> order;
    const auto record = [&](const char* name) {
        std::lock_guard<std::mutex> lock(order_mutex);
        order.emplace_back(name);
    };
    pool.submit([&] { record("default-1"); });  // Priority::kDefault
    pool.submit([&] { record("sizing-1"); }, se::Priority::kSizing);
    pool.submit([&] { record("eval-1"); }, se::Priority::kEvaluation);
    pool.submit([&] { record("default-2"); }, se::Priority::kDefault);
    pool.submit([&] { record("eval-2"); }, se::Priority::kEvaluation);
    pool.submit([&] { record("sizing-2"); }, se::Priority::kSizing);

    gate.set_value();
    pool.wait_idle();
    EXPECT_EQ(order,
              (std::vector<std::string>{"eval-1", "eval-2", "sizing-1",
                                        "sizing-2", "default-1",
                                        "default-2"}));
}

TEST(ParallelMap, OrderedResultsForAnyThreadCount) {
    const std::size_t n = 257;
    auto square = [](std::size_t i) { return i * i; };
    std::vector<std::size_t> serial(n);
    for (std::size_t i = 0; i < n; ++i) serial[i] = square(i);

    for (const std::size_t threads : {2UL, 4UL, 8UL}) {
        se::ThreadPool pool(threads);
        const auto parallel = se::parallel_map(pool, n, square);
        EXPECT_EQ(parallel, serial) << "threads=" << threads;
    }
}

TEST(ParallelMap, EmptyAndSingleton) {
    se::ThreadPool pool(3);
    const auto none =
        se::parallel_map(pool, 0, [](std::size_t i) { return i; });
    EXPECT_TRUE(none.empty());
    const auto one =
        se::parallel_map(pool, 1, [](std::size_t i) { return i + 41; });
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0], 41u);
}

TEST(ParallelMap, PropagatesTheFirstException) {
    se::ThreadPool pool(4);
    EXPECT_THROW(
        {
            auto r = se::parallel_map(pool, 64, [](std::size_t i) {
                if (i == 13) throw std::runtime_error("boom");
                return i;
            });
            (void)r;
        },
        std::runtime_error);
    // The pool survives a throwing map and keeps working.
    const auto ok =
        se::parallel_map(pool, 8, [](std::size_t i) { return i * 2; });
    EXPECT_EQ(ok[7], 14u);
}

TEST(ParallelMap, PoolIsReusableAcrossManyMaps) {
    se::ThreadPool pool(4);
    std::size_t total = 0;
    for (int round = 0; round < 20; ++round) {
        const auto r =
            se::parallel_map(pool, 32, [](std::size_t i) { return i; });
        total += std::accumulate(r.begin(), r.end(), std::size_t{0});
    }
    EXPECT_EQ(total, 20u * (31u * 32u / 2u));
}

TEST(Executor, SerialExecutorOwnsNoPool) {
    se::Executor exec(1);
    EXPECT_EQ(exec.workers(), 1u);
    EXPECT_TRUE(exec.serial());
    EXPECT_EQ(exec.pool(), nullptr);
    const auto r = exec.map(5, [](std::size_t i) { return i * 3; });
    ASSERT_EQ(r.size(), 5u);
    EXPECT_EQ(r[4], 12u);
}

TEST(Executor, ParallelExecutorMatchesSerialBitForBit) {
    se::Executor serial(1);
    const auto expected =
        serial.map(113, [](std::size_t i) { return 1.0 / (1.0 + i); });
    for (const std::size_t threads : {2UL, 4UL}) {
        se::Executor exec(threads);
        EXPECT_EQ(exec.workers(), threads);
        EXPECT_FALSE(exec.serial());
        ASSERT_NE(exec.pool(), nullptr);
        const auto got =
            exec.map(113, [](std::size_t i) { return 1.0 / (1.0 + i); });
        EXPECT_EQ(got, expected) << "threads=" << threads;
    }
}

TEST(Executor, IsReusableAcrossManyMaps) {
    se::Executor exec(4);
    std::size_t total = 0;
    for (int round = 0; round < 10; ++round) {
        const auto r = exec.map(32, [](std::size_t i) { return i; });
        total += std::accumulate(r.begin(), r.end(), std::size_t{0});
    }
    EXPECT_EQ(total, 10u * (31u * 32u / 2u));
}

TEST(Executor, TopLevelMapRunsAtMostWorkersBodiesAtOnce) {
    // The calling thread drives the loop too, so it counts as one of the
    // executor's workers: an N-worker map called from outside the pool
    // must never run more than N bodies at once. Each body sleeps long
    // enough that every thread taking part overlaps with the others.
    se::Executor exec(2);
    std::atomic<int> running{0};
    std::atomic<int> peak{0};
    const auto out = exec.map(12, [&](std::size_t i) {
        const int now = ++running;
        int seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        --running;
        return i;
    });
    EXPECT_EQ(out.size(), 12u);
    EXPECT_LE(peak.load(), 2);
    EXPECT_GE(peak.load(), 1);
}

TEST(ParallelForIndex, VisitsEveryIndexOnce) {
    se::ThreadPool pool(4);
    std::vector<std::atomic<int>> visits(500);
    se::parallel_for_index(pool, visits.size(),
                           [&](std::size_t i) { ++visits[i]; });
    for (std::size_t i = 0; i < visits.size(); ++i)
        EXPECT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(ParallelForIndex, NestedFanOutOnTheSamePoolCompletes) {
    // Every outer index occupies a worker and fans again on the same
    // pool — under the old blocking scheme this parked all workers on
    // waits only other workers could satisfy (deadlock); the caller-
    // driving loop guarantees progress instead.
    se::ThreadPool pool(2);
    std::vector<std::size_t> sums(8, 0);
    se::parallel_for_index(pool, sums.size(), [&](std::size_t i) {
        const auto inner = se::parallel_map(
            pool, 16, [i](std::size_t k) { return i * 100 + k; });
        sums[i] = std::accumulate(inner.begin(), inner.end(), std::size_t{0});
    });
    for (std::size_t i = 0; i < sums.size(); ++i)
        EXPECT_EQ(sums[i], i * 1600 + 120) << "outer index " << i;
}

TEST(Executor, NestedMapMatchesSerialBitForBit) {
    const auto run_with = [](se::Executor& exec) {
        return exec.map(6, [&](std::size_t i) {
            const auto inner = exec.map(
                10, [i](std::size_t k) { return 1.0 / (1.0 + i + k); });
            double total = 0.0;
            for (const double v : inner) total += v;
            return total;
        });
    };
    se::Executor serial(1);
    const auto expected = run_with(serial);
    for (const std::size_t threads : {2UL, 4UL}) {
        se::Executor exec(threads);
        const auto got = run_with(exec);
        EXPECT_EQ(got, expected) << "threads=" << threads;
    }
}

TEST(TaskGraph, RunsEverySubmittedTask) {
    se::Executor exec(4);
    se::TaskGraph graph(exec);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i)
        graph.submit([&counter] { ++counter; });
    graph.wait();
    EXPECT_EQ(counter.load(), 100);
}

TEST(TaskGraph, TasksMaySubmitContinuations) {
    // The BatchRunner shape: parents submit their children from inside
    // their own bodies; wait() covers the whole cascade.
    se::Executor exec(3);
    se::TaskGraph graph(exec);
    std::vector<std::atomic<int>> child_runs(10);
    for (std::size_t p = 0; p < child_runs.size(); ++p) {
        graph.submit([&graph, &child_runs, p] {
            for (int c = 0; c < 4; ++c)
                graph.submit([&child_runs, p] { ++child_runs[p]; });
        });
    }
    graph.wait();
    for (std::size_t p = 0; p < child_runs.size(); ++p)
        EXPECT_EQ(child_runs[p].load(), 4) << "parent " << p;
}

TEST(TaskGraph, SerialExecutorRunsInlineDepthFirst) {
    se::Executor serial(1);
    se::TaskGraph graph(serial);
    std::vector<int> order;
    for (int p = 0; p < 3; ++p) {
        graph.submit([&graph, &order, p] {
            order.push_back(10 * p);
            graph.submit([&order, p] { order.push_back(10 * p + 1); });
        });
    }
    graph.wait();
    // Each parent's continuation runs before the next parent — the
    // serial reference order the parallel runs must reproduce through
    // index-addressed slots.
    EXPECT_EQ(order, (std::vector<int>{0, 1, 10, 11, 20, 21}));
}

TEST(TaskGraph, MixedPrioritiesRunEveryTaskExactlyOnce) {
    // Priorities reorder claims, nothing else: every task still runs
    // exactly once and wait() covers the whole cascade, whatever the
    // labeling — including continuations submitted at a *higher*
    // priority than their parents (the BatchRunner shape).
    se::Executor exec(3);
    se::TaskGraph graph(exec);
    std::vector<std::atomic<int>> runs(12);
    for (std::size_t p = 0; p < runs.size(); ++p) {
        graph.submit(
            [&graph, &runs, p] {
                graph.submit([&runs, p] { ++runs[p]; },
                             se::Priority::kEvaluation);
            },
            se::Priority::kSizing);
    }
    graph.wait();
    for (std::size_t p = 0; p < runs.size(); ++p)
        EXPECT_EQ(runs[p].load(), 1) << "parent " << p;
}

TEST(TaskGraph, PrioritizedGraphMatchesFifoGraphResultSlots) {
    // The determinism contract under relabeling: index-addressed slots
    // hold the same values whether the graph runs FIFO (all kDefault) or
    // priority-scheduled, at any width.
    const auto run_with = [](se::Executor& exec, bool prioritized) {
        se::TaskGraph graph(exec);
        std::vector<double> slots(40, 0.0);
        for (std::size_t i = 0; i < slots.size(); ++i) {
            const se::Priority priority =
                !prioritized ? se::Priority::kDefault
                : i % 2 == 0 ? se::Priority::kEvaluation
                             : se::Priority::kSizing;
            graph.submit(
                [&slots, i] { slots[i] = 1.0 / (1.0 + static_cast<double>(i)); },
                priority);
        }
        graph.wait();
        return slots;
    };
    se::Executor serial(1);
    const auto expected = run_with(serial, true);
    for (const std::size_t threads : {2UL, 4UL}) {
        se::Executor exec(threads);
        EXPECT_EQ(run_with(exec, true), expected) << "threads=" << threads;
        EXPECT_EQ(run_with(exec, false), expected) << "threads=" << threads;
    }
}

TEST(TaskGraph, WaitRethrowsTheFirstErrorAndSkipsPendingTasks) {
    se::Executor exec(2);
    se::TaskGraph graph(exec);
    std::atomic<int> ran{0};
    graph.submit([] { throw std::runtime_error("boom"); });
    for (int i = 0; i < 50; ++i)
        graph.submit([&ran] { ++ran; });
    EXPECT_THROW(graph.wait(), std::runtime_error);
    // Skipped or ran, every slot drained; the graph stays usable.
    EXPECT_LE(ran.load(), 50);
    graph.submit([&ran] { ++ran; });
    EXPECT_NO_THROW(graph.wait());
}

TEST(TaskGraph, SerialErrorsAreAlsoDeferredToWait) {
    se::Executor serial(1);
    se::TaskGraph graph(serial);
    std::vector<int> ran;
    graph.submit([&ran] { ran.push_back(1); });
    graph.submit([] { throw std::runtime_error("boom"); });
    graph.submit([&ran] { ran.push_back(2); });  // skipped: cancelled
    EXPECT_THROW(graph.wait(), std::runtime_error);
    EXPECT_EQ(ran, std::vector<int>{1});
}
