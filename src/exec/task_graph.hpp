// A completion-counted task fan-out on one Executor — the primitive that
// turns staged fork-join code into a pipelined task graph.
//
// submit() enqueues a task on the executor's pool (or runs it inline on a
// serial executor), and — crucially — tasks may submit follow-up tasks
// from inside their own bodies: the completion count covers every task
// ever submitted, so a parent that schedules continuations before it
// returns can never race wait() into an early wake-up. That is exactly
// the dependency-aware shape scenario::BatchRunner uses: every sizing job
// is submitted up front and each one submits its evaluation replications
// the moment it finishes, so stage-2 work overlaps the remaining stage-1
// work instead of idling behind a barrier.
//
// Scheduling: submit() takes an exec::Priority (default kDefault), which
// orders *claims* on the pool — a task submitted at Priority::kEvaluation
// jumps ahead of queued Priority::kSizing work, so a finished sizing
// job's evaluation replications run before still-pending sizing jobs.
// Priorities change only when tasks start, never what they compute: the
// bit-identical-results-for-any-thread-count contract holds for any
// priority labeling, because results live in index-addressed slots and
// the caller folds them in its own order. On a serial executor tasks run
// inline at submission, so priorities are accepted but moot there — the
// serial reference order is submission order either way.
//
// Error handling: the first exception a task throws is captured and
// rethrown by wait(); tasks that have not *started* by then are skipped
// (their slots still count down, so wait() always returns). Determinism
// is the submitter's job, same contract as parallel_map: tasks write to
// index-addressed slots and the caller folds them in its own order.
//
// Threading rules: submit() is safe from any thread, including from
// inside a running task. wait() must be called from the thread that owns
// the graph — never from inside a task — and the graph must outlive
// every task it runs (wait() or the destructor guarantees that).
#pragma once

#include "exec/executor.hpp"

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>

namespace socbuf::exec {

class TaskGraph {
public:
    explicit TaskGraph(Executor& executor);
    /// Blocks until every submitted task has drained (errors are kept for
    /// a later wait() call, not thrown from here).
    ~TaskGraph();

    TaskGraph(const TaskGraph&) = delete;
    TaskGraph& operator=(const TaskGraph&) = delete;

    /// Schedule one task. On a serial executor the task runs inline,
    /// right here (continuations therefore run depth-first, preserving
    /// the serial reference order); on a pooled executor it is enqueued
    /// at `priority` (higher levels are claimed before lower ones; same
    /// level runs FIFO). After a task has thrown, further tasks are
    /// skipped.
    void submit(std::function<void()> task,
                Priority priority = Priority::kDefault);

    /// Block until every task submitted so far — including tasks they
    /// submitted in turn — has finished, then rethrow the first captured
    /// exception, if any. The graph is reusable afterwards.
    void wait();

private:
    void run_one(const std::function<void()>& task);
    void finish_one();

    Executor& executor_;
    std::mutex mutex_;
    std::condition_variable all_done_;
    std::size_t pending_ = 0;
    bool cancelled_ = false;  // a task threw; skip tasks not yet started
    std::exception_ptr error_;
};

}  // namespace socbuf::exec
