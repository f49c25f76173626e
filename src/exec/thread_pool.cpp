#include "exec/thread_pool.hpp"

#include "util/contracts.hpp"

#include <algorithm>
#include <utility>

namespace socbuf::exec {

namespace {

/// The pool whose worker_loop runs on this thread (nullptr elsewhere).
thread_local const ThreadPool* current_pool = nullptr;

}  // namespace

std::size_t resolve_thread_count(std::size_t requested) {
    SOCBUF_REQUIRE_MSG(requested <= kMaxThreads,
                       "thread count exceeds exec::kMaxThreads");
    if (requested != 0) return requested;
    return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t threads) {
    const std::size_t n = resolve_thread_count(threads);
    workers_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    job_available_.notify_all();
    for (auto& w : workers_) w.join();
}

bool ThreadPool::queues_empty() const {
    for (const auto& queue : queues_)
        if (!queue.empty()) return false;
    return true;
}

void ThreadPool::submit(std::function<void()> job, Priority priority) {
    SOCBUF_REQUIRE_MSG(job != nullptr, "cannot submit an empty job");
    const auto level = static_cast<std::size_t>(priority);
    SOCBUF_REQUIRE_MSG(level < kPriorityLevels, "unknown job priority");
    {
        std::lock_guard<std::mutex> lock(mutex_);
        SOCBUF_REQUIRE_MSG(!stopping_,
                           "cannot submit to a stopping thread pool");
        queues_[level].push_back(std::move(job));
    }
    job_available_.notify_one();
}

void ThreadPool::wait_idle() {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return queues_empty() && active_ == 0; });
}

bool ThreadPool::on_worker() const { return current_pool == this; }

void ThreadPool::worker_loop() {
    current_pool = this;
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            job_available_.wait(
                lock, [this] { return stopping_ || !queues_empty(); });
            // Claim the oldest job of the highest non-empty priority.
            std::size_t claim = 0;
            while (claim < kPriorityLevels && queues_[claim].empty())
                ++claim;
            if (claim == kPriorityLevels) return;  // stopping_, nothing left
            job = std::move(queues_[claim].front());
            queues_[claim].pop_front();
            ++active_;
        }
        job();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --active_;
            if (queues_empty() && active_ == 0) idle_.notify_all();
        }
    }
}

}  // namespace socbuf::exec
