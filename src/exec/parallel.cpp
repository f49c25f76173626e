#include "exec/parallel.hpp"

#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>

namespace socbuf::exec {

namespace {

/// State of one parallel_for_index call. Heap-allocated and co-owned by
/// the helper jobs so stragglers dequeued after the call has returned
/// find an exhausted cursor instead of a dead stack frame; the body is
/// copied in for the same reason.
struct ForIndexState {
    std::function<void(std::size_t)> body;
    std::mutex mutex;
    std::condition_variable done;
    std::size_t next = 0;       // next unclaimed index
    std::size_t total = 0;
    std::size_t in_flight = 0;  // claimed indices whose body is running
    bool abort = false;         // set by the first exception
    std::exception_ptr error;
};

/// Claim-and-run loop shared by the caller and every helper job: claim
/// one index at a time under the lock, run the body outside it. Exits
/// when the cursor is exhausted or a body threw; the last exiting driver
/// (in_flight back to zero) wakes the waiting caller.
void drive(ForIndexState& state) {
    std::unique_lock<std::mutex> lock(state.mutex);
    while (!state.abort && state.next < state.total) {
        const std::size_t i = state.next++;
        ++state.in_flight;
        lock.unlock();
        try {
            state.body(i);
            lock.lock();
        } catch (...) {
            lock.lock();
            if (state.error == nullptr)
                state.error = std::current_exception();
            state.abort = true;  // stop claiming further indices everywhere
        }
        --state.in_flight;
    }
    if (state.in_flight == 0) state.done.notify_all();
}

}  // namespace

void parallel_for_index(ThreadPool& pool, std::size_t n,
                        const std::function<void(std::size_t)>& body,
                        Priority priority) {
    if (n == 0) return;
    if (pool.size() <= 1 || n == 1) {
        for (std::size_t i = 0; i < n; ++i) body(i);
        return;
    }

    auto state = std::make_shared<ForIndexState>();
    state->body = body;
    state->total = n;

    // Only a worker of this pool drives the loop itself: that keeps a
    // nested fan-out making progress on its own worker whether or not
    // any other worker is free, so nesting never deadlocks. Any other
    // caller only submits helpers and waits, so at most size() bodies of
    // this pool run at once however deep the fan-outs nest. A straggler
    // helper that only gets dequeued after the call returned sees an
    // exhausted cursor and exits immediately.
    const bool drives = pool.on_worker();
    const std::size_t helpers = std::min(pool.size(), n) - (drives ? 1 : 0);
    for (std::size_t w = 0; w < helpers; ++w)
        pool.submit([state] { drive(*state); }, priority);

    if (drives) drive(*state);

    std::unique_lock<std::mutex> lock(state->mutex);
    state->done.wait(lock, [&] {
        return state->in_flight == 0 &&
               (state->abort || state->next >= state->total);
    });
    if (state->error != nullptr) std::rethrow_exception(state->error);
}

void parallel_for_ranges(
    ThreadPool& pool, std::size_t n,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t min_chunk) {
    if (n == 0) return;
    if (min_chunk == 0) min_chunk = 1;
    const std::size_t chunks = (n + min_chunk - 1) / min_chunk;
    if (pool.size() <= 1 || chunks <= 1) {
        body(0, n);
        return;
    }
    parallel_for_index(pool, chunks, [&](std::size_t c) {
        const std::size_t lo = c * min_chunk;
        body(lo, std::min(lo + min_chunk, n));
    });
}

}  // namespace socbuf::exec
