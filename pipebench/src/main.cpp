// pipebench — the measuring half of socbuf's benchmark (run.py drives it).
//
//   pipebench generate <workload> <seed> <out.json>
//       Write the workload's scenario catalog document at `seed`.
//   pipebench setup <file>
//       Time the process's first Session set-up — a 4-thread Session's
//       construction, then load_file of the workload file — as a user's
//       program pays it. Prints one JSON line.
//   pipebench sample <workload> <file>
//       One end-to-end sample with tracing off: the batch through
//       Session::run at 1 thread (timed, peak RSS read right after it) and
//       at 4 threads (timed), then the output check. Prints one JSON line.
//   pipebench trace <workload> <file> <trace_out.json>
//       The traced replay at 1 and 4 threads beside untraced Session runs;
//       checks the replays against the report bit for bit, writes the spans
//       as Chrome trace-event JSON and prints the per-layer metrics as one
//       JSON line.
//
// Exit status: 0 when the measurement completed (check failures are
// reported in the JSON, not by the exit status), 1 on errors, 2 on usage.
#include "check.hpp"
#include "metrics.hpp"
#include "replay.hpp"
#include "session/session.hpp"
#include "trace.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

namespace {

using pipebench::CheckFailures;
using socbuf::util::JsonValue;

/// The parallel width every end-to-end sample runs at (the machine the
/// benchmark was defined on has 4 cores).
constexpr std::size_t kWideThreads = 4;
constexpr int kTraceReps = 5;

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

double time_call(const std::function<void()>& fn) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    return seconds_since(start);
}

socbuf::SessionOptions session_options(std::size_t threads) {
    socbuf::SessionOptions options;
    options.threads = threads;
    return options;
}

/// The set-up before a first run call: seconds to construct a 4-thread
/// Session (pool spawn included), then to load the workload file into it.
struct SetupTime {
    double construct_s = 0.0;
    double load_s = 0.0;
};

SetupTime time_setup(const std::string& file) {
    SetupTime out;
    const auto start = std::chrono::steady_clock::now();
    socbuf::Session session(session_options(kWideThreads));
    out.construct_s = seconds_since(start);
    out.load_s = time_call([&] { (void)session.load_file(file); });
    return out;
}

struct TimedRun {
    socbuf::scenario::BatchReport report;
    double wall_s = 0.0;
};

TimedRun timed_run(const std::string& workload, const std::string& file,
                   std::size_t threads) {
    socbuf::Session session(session_options(threads));
    (void)session.load_file(file);
    TimedRun out;
    const auto start = std::chrono::steady_clock::now();
    out.report = session.run(workload);
    out.wall_s = seconds_since(start);
    return out;
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

JsonValue failure_list(const CheckFailures& failures) {
    JsonValue out = JsonValue::array();
    for (const auto& f : failures) out.push_back(f);
    return out;
}

void append(CheckFailures& to, const std::string& prefix,
            const CheckFailures& from) {
    for (const auto& f : from) to.push_back(prefix + f);
}

int run_generate(const std::string& workload, const std::string& seed_text,
                 const std::string& out_path) {
    std::uint64_t seed = 0;
    const auto [end, ec] = std::from_chars(
        seed_text.data(), seed_text.data() + seed_text.size(), seed);
    if (ec != std::errc() || end != seed_text.data() + seed_text.size()) {
        std::cerr << "pipebench: bad seed '" << seed_text << "'\n";
        return 2;
    }
    std::ofstream out(out_path, std::ios::binary);
    out << pipebench::make_workload(workload, seed).dump(2) << "\n";
    if (!out) {
        std::cerr << "pipebench: cannot write " << out_path << "\n";
        return 1;
    }
    return 0;
}

int run_setup(const std::string& file) {
    const SetupTime t = time_setup(file);
    JsonValue line = JsonValue::object();
    line.set("setup_s", t.construct_s + t.load_s);
    std::cout << line.dump() << std::endl;
    return 0;
}

int run_sample(const std::string& workload, const std::string& file) {
    // The 1-thread run goes first so the process peak is its own.
    const TimedRun serial = timed_run(workload, file, 1);
    const double rss = peak_rss_mb();
    const TimedRun wide = timed_run(workload, file, kWideThreads);

    const CheckFailures failures =
        pipebench::check_sample(serial.report, wide.report);
    double resized_loss = 0.0;
    for (const auto& run : serial.report.runs) resized_loss += run.post_total;
    const std::size_t jobs = serial.report.runs.size();

    JsonValue line = JsonValue::object();
    line.set("serial_wall_s", serial.wall_s);
    line.set("wall_s", wide.wall_s);
    line.set("peak_rss_mb", rss);
    line.set("resized_loss", resized_loss);
    line.set("jobs", jobs);
    line.set("failed", failures.empty() ? std::size_t{0} : jobs);
    line.set("failures", failure_list(failures));
    std::cout << line.dump() << std::endl;
    return 0;
}

int run_trace(const std::string& workload, const std::string& file,
              const std::string& trace_path) {
    pipebench::SessionTimes times;
    times.workers = kWideThreads;
    std::vector<double> construct;
    std::vector<double> load;
    for (int i = 0; i < kTraceReps; ++i) {
        const SetupTime t = time_setup(file);
        construct.push_back(t.construct_s);
        load.push_back(t.load_s);
    }
    times.construct_s = pipebench::median(construct);
    times.load_s = pipebench::median(load);

    const TimedRun serial = timed_run(workload, file, 1);
    const TimedRun wide = timed_run(workload, file, kWideThreads);
    times.serial_wall_s = serial.wall_s;
    times.wall_s = wide.wall_s;
    std::vector<double> report_json;
    for (int i = 0; i < kTraceReps; ++i)
        report_json.push_back(
            time_call([&] { (void)serial.report.to_json(); }));
    times.report_json_s = pipebench::median(report_json);

    CheckFailures failures;
    append(failures, "sample: ",
           pipebench::check_sample(serial.report, wide.report));

    socbuf::Session session(session_options(1));
    (void)session.load_file(file);
    const auto specs = session.registry().expand(workload);
    const pipebench::ReplayResult serial_replay =
        pipebench::replay(specs, 1);
    append(failures, "1-thread replay: ",
           pipebench::check_replay(serial.report, serial_replay.runs,
                                   serial_replay.cache.hits,
                                   serial_replay.cache.misses));
    const pipebench::ReplayResult wide_replay =
        pipebench::replay(specs, kWideThreads);
    append(failures, "4-thread replay: ",
           pipebench::check_replay(serial.report, wide_replay.runs,
                                   wide_replay.cache.hits,
                                   wide_replay.cache.misses));

    {
        std::ofstream out(trace_path, std::ios::binary);
        out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
            << pipebench::Tracer::chrome_events(serial_replay.spans, 1)
            << ",\n"
            << pipebench::Tracer::chrome_events(wide_replay.spans,
                                                static_cast<int>(kWideThreads))
            << "\n]}\n";
        if (!out) failures.push_back("cannot write " + trace_path);
    }

    // Where the traced 1-thread replay spent its time, largest first.
    const auto by_layer = pipebench::layer_self_times(serial_replay.spans);
    std::vector<std::pair<double, std::string>> ranked;
    for (const auto& [layer, seconds] : by_layer)
        ranked.emplace_back(seconds, layer);
    std::sort(ranked.rbegin(), ranked.rend());
    std::cerr << "layer self time, traced 1-thread replay of " << workload
              << " (" << serial_replay.wall_s << " s wall):\n";
    for (const auto& [seconds, layer] : ranked)
        std::cerr << "  " << layer << " " << seconds << " s\n";

    JsonValue metrics = JsonValue::object();
    for (const auto& m :
         pipebench::layer_metrics(serial_replay, wide_replay, times)) {
        JsonValue entry = JsonValue::object();
        entry.set("value", m.value);
        entry.set("unit", m.unit);
        metrics.set(m.name, std::move(entry));
    }
    const std::size_t jobs = serial.report.runs.size();
    JsonValue line = JsonValue::object();
    line.set("metrics", std::move(metrics));
    line.set("jobs", jobs);
    line.set("failed", failures.empty() ? std::size_t{0} : jobs);
    line.set("failures", failure_list(failures));
    std::cout << line.dump() << std::endl;
    return 0;
}

int usage() {
    std::cerr << "usage: pipebench generate <workload> <seed> <out.json>\n"
                 "       pipebench setup <file>\n"
                 "       pipebench sample <workload> <file>\n"
                 "       pipebench trace <workload> <file> <trace_out.json>\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty()) return usage();
    const std::string& mode = args[0];
    try {
        if (mode == "generate" && args.size() == 4)
            return run_generate(args[1], args[2], args[3]);
        if (mode == "setup" && args.size() == 2) return run_setup(args[1]);
        if (mode == "sample" && args.size() == 3)
            return run_sample(args[1], args[2]);
        if (mode == "trace" && args.size() == 4)
            return run_trace(args[1], args[2], args[3]);
    } catch (const std::exception& e) {
        std::cerr << "pipebench: " << e.what() << "\n";
        return 1;
    }
    return usage();
}
