#include "trace.hpp"

#include "util/json.hpp"

#include <algorithm>
#include <functional>
#include <thread>
#include <utility>

namespace pipebench {

namespace {

/// Open spans of the calling thread, innermost last.
thread_local std::vector<std::int64_t> t_open;

}  // namespace

std::vector<double> self_times(const std::vector<Span>& spans) {
    std::map<std::int64_t, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> covered(
        spans.size());
    for (const Span& s : spans) {
        const auto parent = index.find(s.parent);
        if (parent == index.end()) continue;
        const Span& p = spans[parent->second];
        const std::int64_t lo = std::max(s.start_ns, p.start_ns);
        const std::int64_t hi = std::min(s.end_ns, p.end_ns);
        if (hi > lo) covered[parent->second].emplace_back(lo, hi);
    }
    std::vector<double> out(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto& intervals = covered[i];
        std::sort(intervals.begin(), intervals.end());
        std::int64_t union_ns = 0;
        std::int64_t run_lo = 0;
        std::int64_t run_hi = -1;
        for (const auto& [lo, hi] : intervals) {
            if (lo > run_hi) {
                if (run_hi > run_lo) union_ns += run_hi - run_lo;
                run_lo = lo;
                run_hi = hi;
            } else {
                run_hi = std::max(run_hi, hi);
            }
        }
        if (run_hi > run_lo) union_ns += run_hi - run_lo;
        const std::int64_t total = spans[i].end_ns - spans[i].start_ns;
        out[i] = static_cast<double>(total - union_ns) * 1e-9;
    }
    return out;
}

std::map<std::string, double> layer_self_times(const std::vector<Span>& spans) {
    const std::vector<double> self = self_times(spans);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[spans[i].layer] += self[i];
    return out;
}

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

std::int64_t Tracer::current() { return t_open.empty() ? -1 : t_open.back(); }

std::uint32_t Tracer::thread_index() {
    const std::uint64_t key =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    const auto it = threads_.find(key);
    if (it != threads_.end()) return it->second;
    const auto index = static_cast<std::uint32_t>(threads_.size());
    threads_.emplace(key, index);
    return index;
}

Tracer::Scope::Scope(Tracer& tracer, std::string layer, std::string name)
    : tracer_(tracer) {
    span_.layer = std::move(layer);
    span_.name = std::move(name);
    span_.parent = current();
    {
        const std::lock_guard<std::mutex> lock(tracer_.mutex_);
        span_.id = tracer_.next_id_++;
        span_.tid = tracer_.thread_index();
    }
    t_open.push_back(span_.id);
    span_.start_ns = tracer_.now_ns();
}

Tracer::Scope::~Scope() {
    span_.end_ns = tracer_.now_ns();
    t_open.pop_back();
    const std::lock_guard<std::mutex> lock(tracer_.mutex_);
    tracer_.spans_.push_back(std::move(span_));
}

Tracer::Adopt::Adopt(std::int64_t parent) { t_open.push_back(parent); }

Tracer::Adopt::~Adopt() { t_open.pop_back(); }

std::vector<Span> Tracer::spans() const {
    std::vector<Span> out;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        out = spans_;
    }
    std::sort(out.begin(), out.end(),
              [](const Span& a, const Span& b) { return a.id < b.id; });
    return out;
}

std::string Tracer::chrome_events(const std::vector<Span>& spans, int pid) {
    std::string out;
    for (const Span& s : spans) {
        socbuf::util::JsonValue event = socbuf::util::JsonValue::object();
        event.set("name", s.name);
        event.set("cat", s.layer);
        event.set("ph", "X");
        event.set("ts", static_cast<double>(s.start_ns) * 1e-3);
        event.set("dur", static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
        event.set("pid", pid);
        event.set("tid", static_cast<std::size_t>(s.tid));
        socbuf::util::JsonValue args = socbuf::util::JsonValue::object();
        args.set("id", static_cast<double>(s.id));
        args.set("parent", static_cast<double>(s.parent));
        event.set("args", std::move(args));
        if (!out.empty()) out += ",\n";
        out += event.dump();
    }
    return out;
}

}  // namespace pipebench
