// A2 — simulator validation: measured M/M/1/K blocking against the closed
// form across loads and capacities, plus raw event throughput of the DES
// on the network-processor testbench.
//
// `--json <file>` writes the structured measurement for the
// perf-trajectory format under BENCH_*.json and skips the
// google-benchmark loop: events/s and packets/s on the network-processor
// testbench at horizons 1000 and 4000, the peak RSS of a one-iteration,
// one-replication figure1 run at horizons 5k, 50k and 200k (each in a
// forked child, so every horizon gets a fresh high-water mark), and the
// M/M/1/K error rows.
#include "arch/presets.hpp"
#include "queueing/mm1k.hpp"
#include "scenario/scenario.hpp"
#include "session/session.hpp"
#include "sim/simulator.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

#include <benchmark/benchmark.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

namespace {

socbuf::arch::TestSystem single_queue(double lambda, double mu) {
    socbuf::arch::TestSystem sys;
    sys.name = "mm1k";
    const auto bus = sys.architecture.add_bus("bus", mu);
    const auto src = sys.architecture.add_processor("src", bus);
    const auto dst = sys.architecture.add_processor("dst", bus);
    sys.flows.push_back({src, dst, lambda, 1.0, 0.0, 0.0});
    return sys;
}

struct Mm1kRow {
    double rho = 0.0;
    long k = 0;
    double analytic = 0.0;
    double simulated = 0.0;
};

std::vector<Mm1kRow> mm1k_rows() {
    std::vector<Mm1kRow> rows;
    for (const double rho : {0.5, 0.8, 0.95, 1.2}) {
        for (const long k : {3L, 6L, 12L}) {
            const auto sys = single_queue(rho, 1.0);
            socbuf::sim::SimConfig cfg;
            cfg.horizon = 80000.0;
            cfg.warmup = 2000.0;
            cfg.seed = 7;
            const auto r = socbuf::sim::simulate(sys, {k, 1}, cfg);
            rows.push_back(
                {rho, k,
                 socbuf::queueing::analyze_mm1k(rho, 1.0,
                                                static_cast<std::size_t>(k))
                     .blocking_probability,
                 static_cast<double>(r.lost[0]) /
                     static_cast<double>(r.offered[0])});
        }
    }
    return rows;
}

void print_validation() {
    std::printf("\n=== A2: simulated vs analytic M/M/1/K blocking ===\n");
    socbuf::util::Table t(
        {"rho", "K", "analytic", "simulated", "abs err"});
    for (const Mm1kRow& row : mm1k_rows())
        t.add_row({socbuf::util::format_fixed(row.rho, 2),
                   std::to_string(row.k),
                   socbuf::util::format_fixed(row.analytic, 4),
                   socbuf::util::format_fixed(row.simulated, 4),
                   socbuf::util::format_fixed(
                       std::abs(row.simulated - row.analytic), 4)});
    std::printf("%s", t.to_string().c_str());
}

socbuf::sim::SimConfig network_processor_config(double horizon) {
    socbuf::sim::SimConfig cfg;
    cfg.horizon = horizon;
    cfg.warmup = horizon * 0.1;
    return cfg;
}

const std::vector<long> kNetworkProcessorCaps(25, 13);

void BM_NetworkProcessorSim(benchmark::State& state) {
    const auto sys = socbuf::arch::network_processor_system();
    const auto cfg =
        network_processor_config(static_cast<double>(state.range(0)));
    std::uint64_t packets = 0;
    std::uint64_t events = 0;
    for (auto _ : state) {
        auto r = socbuf::sim::simulate(sys, kNetworkProcessorCaps, cfg);
        packets += r.total_offered();
        events += r.events_fired;
        benchmark::DoNotOptimize(r);
    }
    state.counters["packets/s"] = benchmark::Counter(
        static_cast<double>(packets), benchmark::Counter::kIsRate);
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_NetworkProcessorSim)
    ->Arg(1000)
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond);

/// Peak RSS in MB of `socbuf_cli run figure1 --replications 1
/// --iterations 1 --horizon H` at one thread, measured in a forked child so
/// the high-water mark is this run's alone.
double figure1_peak_rss_mb(double horizon) {
    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("fork");
        std::exit(1);
    }
    if (pid == 0) {
        const socbuf::scenario::ScenarioRegistry registry;
        socbuf::scenario::ScenarioSpec spec = registry.get("figure1");
        spec.replications = 1;
        spec.sizing_iterations = 1;
        spec.sim.horizon = horizon;
        socbuf::Session session({1});
        const auto report = session.run(spec);
        _exit(report.runs.empty() ? 1 : 0);
    }
    int status = 0;
    rusage usage{};
    if (wait4(pid, &status, 0, &usage) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
        std::fprintf(stderr, "figure1 run at horizon %.0f failed\n", horizon);
        std::exit(1);
    }
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void write_json_report(const std::string& path) {
    namespace sj = socbuf::util;
    // Fork before anything else runs, while this process is small and
    // single-threaded.
    auto rss = sj::JsonValue::array();
    double rss_first = 0.0;
    double rss_last = 0.0;
    for (const double horizon : {5000.0, 50000.0, 200000.0}) {
        const double mb = figure1_peak_rss_mb(horizon);
        if (rss_first == 0.0) rss_first = mb;
        rss_last = mb;
        auto row = sj::JsonValue::object();
        row.set("horizon", horizon);
        row.set("peak_rss_mb", mb);
        rss.push_back(std::move(row));
        std::printf("figure1 horizon %.0f: peak RSS %.1f MB\n", horizon, mb);
    }

    const auto sys = socbuf::arch::network_processor_system();
    auto throughput = sj::JsonValue::array();
    for (const double horizon : {1000.0, 4000.0}) {
        const auto cfg = network_processor_config(horizon);
        const auto warm = socbuf::sim::simulate(sys, kNetworkProcessorCaps, cfg);
        std::size_t runs = 0;
        double seconds = 0.0;
        while (runs < 5 || seconds < 1.0) {
            const auto start = std::chrono::steady_clock::now();
            const auto r = socbuf::sim::simulate(sys, kNetworkProcessorCaps, cfg);
            seconds += std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
            benchmark::DoNotOptimize(r);
            ++runs;
        }
        const double n = static_cast<double>(runs);
        auto row = sj::JsonValue::object();
        row.set("horizon", horizon);
        row.set("runs", runs);
        row.set("events_per_run", static_cast<double>(warm.events_fired));
        row.set("packets_per_run", static_cast<double>(warm.total_offered()));
        row.set("events_per_s",
                n * static_cast<double>(warm.events_fired) / seconds);
        row.set("packets_per_s",
                n * static_cast<double>(warm.total_offered()) / seconds);
        throughput.push_back(std::move(row));
        std::printf("network-processor horizon %.0f: %.3g events/s, "
                    "%.3g packets/s over %zu runs\n",
                    horizon, n * static_cast<double>(warm.events_fired) / seconds,
                    n * static_cast<double>(warm.total_offered()) / seconds,
                    runs);
    }

    auto mm1k = sj::JsonValue::array();
    for (const Mm1kRow& r : mm1k_rows()) {
        auto row = sj::JsonValue::object();
        row.set("rho", r.rho);
        row.set("k", r.k);
        row.set("analytic", r.analytic);
        row.set("simulated", r.simulated);
        row.set("abs_err", std::abs(r.simulated - r.analytic));
        mm1k.push_back(std::move(row));
    }

    auto root = sj::JsonValue::object();
    root.set("bench", std::string("sim_validation"));
    root.set("network_processor_throughput", std::move(throughput));
    auto memory = sj::JsonValue::object();
    memory.set("threads", 1);
    memory.set("runs", std::move(rss));
    memory.set("rss_ratio_200k_to_5k", rss_last / rss_first);
    root.set("figure1_peak_rss", std::move(memory));
    root.set("mm1k_blocking", std::move(mm1k));
    std::ofstream out(path);
    out << root.dump(2) << "\n";
    std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
    std::string json_path;
    for (int i = 1; i + 1 < argc; ++i)
        if (std::string(argv[i]) == "--json") json_path = argv[i + 1];
    if (!json_path.empty()) {
        write_json_report(json_path);
        return 0;
    }
    print_validation();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
