// In-memory span recorder for the benchmark's traced replay.
//
// Spans are recorded by the benchmark's own code around calls into each
// socbuf layer's public API (the program itself is untouched). Each span
// carries its layer, its parent span and the worker it ran on; spans stay
// in memory and are written once, at the end, as Chrome trace-event JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pipebench {

struct Span {
    std::int64_t id = 0;
    std::int64_t parent = -1;  // -1 = root
    std::string layer;         // "sim", "ctmdp", ...
    std::string name;          // "sim.simulate", "ctmdp.solve", ...
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t tid = 0;     // dense worker index, 0 = first thread seen
    [[nodiscard]] double seconds() const {
        return static_cast<double>(end_ns - start_ns) * 1e-9;
    }
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers (children clipped to
/// the parent). Children may overlap each other (parallel fan-outs), so
/// the union is taken before subtracting. Result aligned with `spans`.
[[nodiscard]] std::vector<double> self_times(const std::vector<Span>& spans);

/// Sum of self times per layer.
[[nodiscard]] std::map<std::string, double> layer_self_times(
    const std::vector<Span>& spans);

class Tracer {
public:
    Tracer();
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /// RAII span: opens on construction, closes and records on
    /// destruction. Nested scopes on one thread become children.
    class Scope {
    public:
        Scope(Tracer& tracer, std::string layer, std::string name);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

        /// Name the span after what the call turned out to do (a cache
        /// hit, or the rung that solved) before it closes.
        void rename(std::string name) { span_.name = std::move(name); }

    private:
        Tracer& tracer_;
        Span span_;
    };

    /// Makes `parent` the current span of this thread for the lifetime of
    /// the object — used at the top of a task body handed to a worker, so
    /// spans it opens are children of the span that submitted it.
    class Adopt {
    public:
        explicit Adopt(std::int64_t parent);
        ~Adopt();
        Adopt(const Adopt&) = delete;
        Adopt& operator=(const Adopt&) = delete;
    };

    /// The innermost open span on the calling thread (-1 = none).
    [[nodiscard]] static std::int64_t current();

    /// Nanoseconds since this tracer was constructed.
    [[nodiscard]] std::int64_t now_ns() const;

    /// Snapshot of every closed span, ordered by id.
    [[nodiscard]] std::vector<Span> spans() const;

    /// Chrome trace-event JSON ("X" complete events, microseconds), as
    /// opened by Perfetto or chrome://tracing. `pid` separates replays
    /// written into one file.
    [[nodiscard]] static std::string chrome_events(
        const std::vector<Span>& spans, int pid);

private:
    /// Dense index of the calling thread. Caller holds mutex_.
    std::uint32_t thread_index();

    std::chrono::steady_clock::time_point origin_;
    mutable std::mutex mutex_;  // guards everything below
    std::vector<Span> spans_;
    std::int64_t next_id_ = 0;
    std::map<std::uint64_t, std::uint32_t> threads_;
};

}  // namespace pipebench
