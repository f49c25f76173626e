#include "exec/task_graph.hpp"

#include "util/contracts.hpp"

#include <utility>

namespace socbuf::exec {

TaskGraph::TaskGraph(Executor& executor) : executor_(executor) {}

TaskGraph::~TaskGraph() {
    std::unique_lock<std::mutex> lock(mutex_);
    all_done_.wait(lock, [this] { return pending_ == 0; });
}

void TaskGraph::submit(std::function<void()> task, Priority priority) {
    SOCBUF_REQUIRE_MSG(task != nullptr, "cannot submit an empty task");
    if (executor_.serial()) {
        // Inline execution; nested submits recurse depth-first, so the
        // serial order is the reference order parallel runs must match.
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (cancelled_) return;
        }
        try {
            task();
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (error_ == nullptr) error_ = std::current_exception();
            cancelled_ = true;
        }
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++pending_;
    }
    executor_.pool()->submit(
        [this, task = std::move(task)] { run_one(task); }, priority);
}

void TaskGraph::run_one(const std::function<void()>& task) {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (cancelled_) {
            finish_one();
            return;
        }
    }
    try {
        task();
    } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (error_ == nullptr) error_ = std::current_exception();
        cancelled_ = true;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    finish_one();
}

void TaskGraph::finish_one() {
    // Caller holds mutex_ (or is in the cancelled branch, which does).
    if (--pending_ == 0) all_done_.notify_all();
}

void TaskGraph::wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    all_done_.wait(lock, [this] { return pending_ == 0; });
    if (error_ != nullptr) {
        std::exception_ptr error = error_;
        error_ = nullptr;
        cancelled_ = false;  // reusable after the error is delivered
        std::rethrow_exception(error);
    }
}

}  // namespace socbuf::exec
