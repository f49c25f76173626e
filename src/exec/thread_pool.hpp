// A fixed-size thread pool: N workers draining per-priority FIFO job
// queues. Deliberately work-stealing-free — jobs are pulled from shared
// queues, which keeps the pool small, predictable, and sufficient for the
// coarse-grained work socbuf parallelizes (CTMDP solves, whole simulation
// replications). Determinism is the job of exec::parallel_map, which
// addresses results by index; the pool itself only promises that every
// submitted job runs exactly once.
//
// Priorities order *claims*, never results: a worker looking for work
// always takes the oldest job of the highest non-empty priority level, so
// a sized job's evaluation replications jump ahead of helper jobs for
// sizing jobs not yet claimed, without any preemption — running jobs are
// never interrupted. Because every socbuf fan-out writes index-addressed
// slots, reordering claims reorders only the schedule, not the folded
// results.
#pragma once

#include <array>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace socbuf::exec {

/// Claim-ordering levels for pool jobs, highest first. The set is small
/// and fixed on purpose: kEvaluation (a sized job's evaluation
/// replications), kSizing (the batch's sizing jobs), and kDefault
/// (everything else: data-parallel helper jobs, ad-hoc tasks), which
/// preserves the pre-priority FIFO position of unlabeled work.
enum class Priority : std::size_t {
    kEvaluation = 0,  // claimed first
    kSizing = 1,
    kDefault = 2,  // claimed last
};

inline constexpr std::size_t kPriorityLevels = 3;

/// The largest worker count the pool accepts. A literal `threads` value
/// beyond this is a caller error (no machine this code targets has more
/// hardware threads, and a runaway value would otherwise die deep inside
/// std::vector with an unhelpful length error) — front ends should
/// validate against it and report a usage error instead.
inline constexpr std::size_t kMaxThreads = 4096;

/// Resolve a user-facing `threads` knob: 0 means "use the hardware"
/// (std::thread::hardware_concurrency, at least 1), anything else is taken
/// literally (must be <= kMaxThreads).
[[nodiscard]] std::size_t resolve_thread_count(std::size_t requested);

class ThreadPool {
public:
    /// Spawn `threads` workers (resolved via resolve_thread_count, so 0 =
    /// hardware concurrency). A 1-thread pool is valid and still runs jobs
    /// on its single worker.
    explicit ThreadPool(std::size_t threads = 0);

    /// Drains outstanding jobs, then joins every worker.
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    [[nodiscard]] std::size_t size() const { return workers_.size(); }

    /// True when the calling thread is one of this pool's workers.
    [[nodiscard]] bool on_worker() const;

    /// Enqueue a job at `priority` (jobs of the same level run FIFO; a
    /// higher level is always claimed before a lower one). Jobs must not
    /// throw out of the callable; wrap your work and capture exceptions
    /// (parallel_map does this for you).
    void submit(std::function<void()> job,
                Priority priority = Priority::kDefault);

    /// Block until every queue is empty and every worker is idle.
    void wait_idle();

private:
    void worker_loop();
    [[nodiscard]] bool queues_empty() const;  // caller holds mutex_

    std::vector<std::thread> workers_;
    /// One FIFO per priority level, indexed by Priority's value; workers
    /// drain lower indices (higher priorities) first.
    std::array<std::deque<std::function<void()>>, kPriorityLevels> queues_;
    mutable std::mutex mutex_;
    std::condition_variable job_available_;
    std::condition_variable idle_;
    std::size_t active_ = 0;
    bool stopping_ = false;
};

}  // namespace socbuf::exec
