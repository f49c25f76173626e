// Deterministic data-parallel helpers on top of exec::ThreadPool.
//
// parallel_map(pool, n, fn) evaluates fn(0..n-1) concurrently and returns
// the results in index order. Each fn(i) must be independent of every
// other index; under that contract the returned vector is **bit-identical
// for any pool size, including 1**, because results are addressed by index
// and the caller folds them in order. Library code outside exec/ does not
// call these helpers directly: it fans out through a caller-owned
// exec::Executor (executor.hpp), whose map() runs parallel_map on the
// executor's one pool, or a plain index loop when the executor is serial.
// That covers the sizing engine's per-subsystem CTMDP solves and every
// per-replication simulation (each replication owns its own RNG
// substream: seed = base seed + replication index).
#pragma once

#include "exec/thread_pool.hpp"

#include <cstddef>
#include <functional>
#include <type_traits>
#include <vector>

namespace socbuf::exec {

/// Run body(i) for every i in [0, n) on the pool's workers and block until
/// all are done. Indices are claimed one at a time from a shared cursor
/// (dynamic load balancing, no stealing); the first exception thrown by
/// any body is rethrown here once every claimed index has finished.
///
/// A caller that is one of the pool's own workers *participates*: it runs
/// the same claim-and-run loop as the helper jobs, so a nested fan-out
/// always makes progress on the calling worker even when every other
/// worker is busy (no deadlock at any nesting depth; at worst the inner
/// indices all run on the calling worker). Any other caller submits
/// min(pool.size(), n) helper jobs and waits, so however deep the
/// fan-outs nest, at most pool.size() bodies run at once.
///
/// `priority` labels the helper jobs the fan-out submits (kDefault keeps
/// the classic claim order). Schedule-only, like every priority in the
/// pool: results are folded by index whatever the label.
void parallel_for_index(ThreadPool& pool, std::size_t n,
                        const std::function<void(std::size_t)>& body,
                        Priority priority = Priority::kDefault);

/// Split [0, n) into contiguous chunks of `min_chunk` indices (the last
/// chunk takes the remainder) and run body(lo, hi) for each chunk on the
/// pool's workers (same caller rule and nesting guarantee as
/// parallel_for_index). The chunk boundaries depend only on n and
/// min_chunk — never on the pool size or scheduling — so a body whose
/// chunk results land in index-addressed storage is bit-identical for any
/// worker count, and even per-chunk partial folds can be refolded in chunk
/// order deterministically. Runs body(0, n) inline when one chunk
/// suffices.
void parallel_for_ranges(ThreadPool& pool, std::size_t n,
                         const std::function<void(std::size_t, std::size_t)>&
                             body,
                         std::size_t min_chunk = 256);

/// Map fn over [0, n) and return results in index order. fn's result type
/// must be default-constructible and movable. Runs inline (no locking)
/// when the pool has a single worker or n <= 1.
template <typename Fn>
[[nodiscard]] auto parallel_map(ThreadPool& pool, std::size_t n, Fn&& fn,
                                Priority priority = Priority::kDefault)
    -> std::vector<std::decay_t<decltype(fn(std::size_t{}))>> {
    using Result = std::decay_t<decltype(fn(std::size_t{}))>;
    std::vector<Result> out(n);
    if (n == 0) return out;
    if (pool.size() <= 1 || n == 1) {
        for (std::size_t i = 0; i < n; ++i) out[i] = fn(i);
        return out;
    }
    parallel_for_index(pool, n, [&](std::size_t i) { out[i] = fn(i); },
                       priority);
    return out;
}

}  // namespace socbuf::exec
