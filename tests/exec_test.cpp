#include "exec/executor.hpp"
#include "exec/parallel.hpp"
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

TEST(Executor, SerialExecutorRunsEveryBodyOnTheCallingThread) {
    se::Executor exec(1);
    EXPECT_EQ(exec.workers(), 1u);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::thread::id> ran_on(5);
    const auto r = exec.map(5, [&](std::size_t i) {
        ran_on[i] = std::this_thread::get_id();
        return i * 3;
    });
    ASSERT_EQ(r.size(), 5u);
    EXPECT_EQ(r[4], 12u);
    for (std::size_t i = 0; i < ran_on.size(); ++i)
        EXPECT_EQ(ran_on[i], caller) << "index " << i;
}

TEST(Executor, ParallelExecutorMatchesSerialBitForBit) {
    se::Executor serial(1);
    const auto expected =
        serial.map(113, [](std::size_t i) { return 1.0 / (1.0 + i); });
    for (const std::size_t threads : {2UL, 4UL}) {
        se::Executor exec(threads);
        EXPECT_EQ(exec.workers(), threads);
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
    // A map called from outside the pool hands its bodies to the
    // workers: an N-worker map must never run more than N bodies at once.
    // Each body sleeps long enough that every thread taking part overlaps
    // with the others.
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

TEST(Executor, NestedMapFromOutsideRunsAtMostWorkersLeafBodiesAtOnce) {
    // A fan-out started outside the pool whose bodies fan again: the
    // calling thread must not drive the nested maps beside the workers,
    // or a 2-worker executor runs 3 leaf bodies at once.
    se::Executor exec(2);
    std::atomic<int> running{0};
    std::atomic<int> peak{0};
    const auto out = exec.map(2, [&](std::size_t i) {
        const auto inner = exec.map(8, [&](std::size_t k) {
            const int now = ++running;
            int seen = peak.load();
            while (now > seen && !peak.compare_exchange_weak(seen, now)) {
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            --running;
            return i * 8 + k;
        });
        return std::accumulate(inner.begin(), inner.end(), std::size_t{0});
    });
    EXPECT_EQ(out[0] + out[1], 15u * 16u / 2u);
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

