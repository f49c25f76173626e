#include "exec/executor.hpp"

namespace socbuf::exec {

Executor::Executor(std::size_t threads)
    : workers_(resolve_thread_count(threads)) {
    if (workers_ > 1) pool_ = std::make_unique<ThreadPool>(workers_);
}

void Executor::for_ranges(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t min_chunk) {
    if (n == 0) return;
    if (pool_ == nullptr) {
        body(0, n);
        return;
    }
    parallel_for_ranges(*pool_, n, body, min_chunk);
}

}  // namespace socbuf::exec
