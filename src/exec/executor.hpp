// The shared execution context of a batch.
//
// An Executor owns exactly one ThreadPool (spawned lazily: a serial
// executor owns none) and is passed *down by reference* through the
// layers — Session -> BatchRunner -> BufferSizingEngine — so
// one set of workers serves an entire batch instead of every engine run
// constructing and tearing down its own pool. It is the only way a socbuf
// layer fans out: no library function takes a thread count and builds a
// pool of its own. map() is the deterministic entry point: like
// exec::parallel_map it returns results in index order, bit-identical for
// any worker count, including 1.
//
// Nesting rule: map() may be called from *inside* a job that is itself
// running on this executor's workers, to any depth. A worker that starts
// a fan-out drives its own claim-and-run loop and recruits other workers
// only when they are free, so a nested fan-out always makes progress and
// never deadlocks; a fan-out started from any other thread hands every
// body to the workers and waits. Either way at most workers() bodies run
// at once. A BatchRunner sizing job therefore fans its subsystem solves
// and its evaluation replications on the same shared executor it runs on.
#pragma once

#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"

#include <cstddef>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace socbuf::exec {

class Executor {
public:
    /// `threads` as everywhere in socbuf: 0 = hardware concurrency,
    /// otherwise taken literally. workers() == 1 never spawns a thread.
    explicit Executor(std::size_t threads = 0);

    Executor(const Executor&) = delete;
    Executor& operator=(const Executor&) = delete;

    [[nodiscard]] std::size_t workers() const { return workers_; }

    /// Map fn over [0, n) on this executor's workers; results in index
    /// order, bit-identical for any worker count. `priority` labels the
    /// fan-out's helper jobs (the insertion search submits its plan
    /// evaluations at Priority::kSizing so a saturated evaluation stream
    /// claims ahead of them); schedule-only, never part of the results.
    template <typename Fn>
    [[nodiscard]] auto map(std::size_t n, Fn&& fn,
                           Priority priority = Priority::kDefault) {
        if (pool_ != nullptr)
            return parallel_map(*pool_, n, std::forward<Fn>(fn), priority);
        std::vector<std::decay_t<decltype(fn(std::size_t{}))>> out(n);
        for (std::size_t i = 0; i < n; ++i) out[i] = fn(i);
        return out;
    }

    /// Chunked fan-out for tight per-index loops (a Bellman sweep, a CSR
    /// row gather): run body(lo, hi) over contiguous chunks of
    /// `min_chunk` indices, inline (one body(0, n) call, no locking) when
    /// the executor is serial or n < 2 * min_chunk. Chunk boundaries
    /// depend only on n and min_chunk, never on the worker count — see
    /// exec::parallel_for_ranges for the determinism contract.
    void for_ranges(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& body,
                    std::size_t min_chunk = 256);

private:
    std::size_t workers_ = 1;
    std::unique_ptr<ThreadPool> pool_;
};

}  // namespace socbuf::exec
