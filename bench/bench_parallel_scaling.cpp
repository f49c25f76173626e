// A9 — parallel execution backbone: wall-clock scaling and determinism of
// the exec layer on the Figure 3 workload. Two claims are measured:
//
//   1. determinism — the `figure3` preset (scaled down) run at
//      threads = 1, 2, 4 produces bit-identical totals (each replication
//      owns its RNG substream and results are folded in index order),
//      and the replication sweep's per-processor means and mean total
//      loss and the fanned timeout calibration's thresholds are
//      bit-identical at every width,
//   2. speedup — the replication sweep, the timeout-calibration fan-out
//      (calibrate x8: eight independent no-timeout sims averaged into
//      the per-site thresholds) and the full run get faster with more
//      workers (on multi-core hardware; a 1-core container shows ~1x,
//      which the table makes obvious rather than hiding).
//
// `--json <file>` writes the same measurements as one JSON document (the
// perf-trajectory format), adding a VI-sweep thread-scaling column: the
// executor-fanned Jacobi sweep on a 16384-state np ingress-bus model at
// threads 1/2/4, with a per-row bit-identity flag against the one-thread
// solve. The google-benchmark loop is skipped in that mode.
#include "arch/presets.hpp"
#include "core/subsystem_model.hpp"
#include "ctmdp/solver.hpp"
#include "exec/executor.hpp"
#include "exec/thread_pool.hpp"
#include "session/session.hpp"
#include "sim/simulator.hpp"
#include "split/splitter.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>

namespace {

/// The Figure 3 preset at half the paper's horizon.
socbuf::scenario::ScenarioSpec scaled_figure3(const socbuf::Session& session) {
    auto spec = session.registry().get("figure3");
    spec.sim.horizon = 2000.0;
    spec.sim.warmup = 200.0;
    spec.sizing_iterations = 6;
    return spec;
}

double seconds_of(const std::function<void()>& body) {
    const auto start = std::chrono::steady_clock::now();
    body();
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(stop - start).count();
}

/// Run the figure-3 scaling measurements; print the table and, when
/// `json_rows` is non-null, append one JSON row per thread count.
void print_scaling(socbuf::util::JsonValue* json_rows) {
    std::printf("\n=== A9: parallel scaling on the Figure 3 workload "
                "(hardware threads: %zu) ===\n",
                socbuf::exec::resolve_thread_count(0));

    // Replication sweep in isolation: the embarrassingly parallel part.
    const auto system = socbuf::arch::network_processor_system();
    socbuf::sim::SimConfig cfg;
    cfg.horizon = 2000.0;
    cfg.warmup = 200.0;
    cfg.seed = 2005;
    const std::vector<long> alloc(
        socbuf::arch::enumerate_buffer_sites(system.architecture).size(),
        10);

    // One untimed pass of all three workloads first: the one-worker row
    // is every speedup's base, and timed cold (first-touch page faults,
    // allocator growth) it read up to 10% slower than warm.
    {
        socbuf::exec::Executor warm(1);
        (void)socbuf::sim::replicate_losses(system, alloc, cfg, 10, warm);
        (void)socbuf::sim::calibrate_timeout(system, alloc, cfg, 4.0, warm,
                                             8);
        socbuf::Session session({1});
        (void)session.run(scaled_figure3(session));
    }

    socbuf::util::Table t({"threads", "replicate_losses [s]",
                           "calibrate x8 [s]", "figure3 [s]",
                           "resized total", "identical"});
    double rep_base = 0.0;
    double cal_base = 0.0;
    double fig_base = 0.0;
    double reference_total = 0.0;
    socbuf::sim::ReplicatedLosses reference_rep;
    socbuf::sim::TimeoutCalibration reference_calibration;
    bool first = true;
    for (const std::size_t threads : {1UL, 2UL, 4UL}) {
        socbuf::exec::Executor executor(threads);
        socbuf::sim::ReplicatedLosses rep;
        const double rep_s = seconds_of([&] {
            rep = socbuf::sim::replicate_losses(system, alloc, cfg, 10,
                                                executor);
        });
        // The in-job timeout-calibration fan-out: eight independent
        // no-timeout sims averaged into the per-site thresholds, fanned
        // on the executor exactly as a sizing job does it.
        socbuf::sim::TimeoutCalibration calibration;
        const double cal_s = seconds_of([&] {
            calibration = socbuf::sim::calibrate_timeout(system, alloc, cfg,
                                                         4.0, executor, 8);
        });
        double resized_total = 0.0;
        const double fig_s = seconds_of([&] {
            socbuf::Session session({threads});
            resized_total =
                session.run(scaled_figure3(session)).runs.front().post_total;
        });
        if (first) {
            rep_base = rep_s;
            cal_base = cal_s;
            fig_base = fig_s;
            reference_total = resized_total;
            reference_rep = rep;
            reference_calibration = calibration;
            first = false;
        }
        const bool identical =
            resized_total == reference_total &&
            rep.mean_lost_per_processor ==
                reference_rep.mean_lost_per_processor &&
            rep.mean_total_lost == reference_rep.mean_total_lost &&
            calibration.global_threshold ==
                reference_calibration.global_threshold &&
            calibration.site_thresholds ==
                reference_calibration.site_thresholds;
        t.add_row({std::to_string(threads),
                   socbuf::util::format_fixed(rep_s, 3) + " (" +
                       socbuf::util::format_fixed(rep_base / rep_s, 2) + "x)",
                   socbuf::util::format_fixed(cal_s, 3) + " (" +
                       socbuf::util::format_fixed(cal_base / cal_s, 2) + "x)",
                   socbuf::util::format_fixed(fig_s, 3) + " (" +
                       socbuf::util::format_fixed(fig_base / fig_s, 2) + "x)",
                   socbuf::util::format_fixed(resized_total, 6),
                   identical ? "yes" : "NO"});
        if (json_rows != nullptr) {
            auto row = socbuf::util::JsonValue::object();
            row.set("threads", threads);
            row.set("replicate_losses_s", rep_s);
            row.set("calibrate_s", cal_s);
            row.set("run_figure3_s", fig_s);
            row.set("resized_total", resized_total);
            row.set("identical", identical);
            json_rows->push_back(std::move(row));
        }
    }
    std::printf("%s", t.to_string().c_str());
}

/// The VI-sweep thread-scaling measurement: the executor-fanned Jacobi
/// sweep on the 16384-state np-cluster-scaling ingress bus (pe = 6,
/// cap = 3) at one, two and four workers. Results must be bit-identical
/// at every width (chunk boundaries depend only on the state count);
/// `identical` verifies gain and bias against the one-thread solve.
socbuf::util::JsonValue vi_sweep_scaling() {
    namespace sj = socbuf::util;
    socbuf::arch::NetworkProcessorParams params;
    params.pe_per_cluster = 6;
    const auto sys = socbuf::arch::network_processor_system(params);
    const auto split = socbuf::split::split_architecture(sys);
    const socbuf::split::Subsystem* bus = nullptr;
    for (const auto& sub : split.subsystems)
        if (sub.bus_name == "ingress") bus = &sub;
    std::vector<long> caps(bus->flows.size(), 3);
    std::vector<double> rates;
    for (const auto& f : bus->flows) rates.push_back(f.arrival_rate);
    const socbuf::core::SubsystemCtmdp model(*bus, caps, rates);

    auto rows = sj::JsonValue::array();
    socbuf::ctmdp::SubsystemSolution reference;
    double base_s = 0.0;
    for (const std::size_t threads : {1UL, 2UL, 4UL}) {
        socbuf::exec::Executor executor(threads);
        socbuf::ctmdp::DispatchOptions d;
        d.choice = socbuf::ctmdp::SolverChoice::kValueIteration;
        d.solver.vi.sweep = socbuf::ctmdp::ViSweep::kJacobi;  // fans out
        d.solver.vi.tolerance = 1e-7;  // the engine's VI rung
        d.solver.vi.max_iterations = 50000;
        d.solver.vi.executor = &executor;
        socbuf::ctmdp::SolverRegistry registry;
        socbuf::ctmdp::SubsystemSolution solution;
        const double s = seconds_of(
            [&] { solution = registry.solve(model.model(), d); });
        if (threads == 1) {
            reference = solution;
            base_s = s;
        }
        const bool identical = solution.gain == reference.gain &&
                               solution.bias == reference.bias;
        auto row = sj::JsonValue::object();
        row.set("threads", threads);
        row.set("states", model.model().state_count());
        row.set("vi_solve_s", s);
        row.set("speedup", s > 0.0 ? base_s / s : 0.0);
        row.set("identical", identical);
        rows.push_back(std::move(row));
        std::printf("vi sweep (16384 states, %zu threads): %.3fs (%.2fx, "
                    "identical %s)\n",
                    threads, s, s > 0.0 ? base_s / s : 0.0,
                    identical ? "yes" : "NO");
    }
    return rows;
}

void write_json_report(const std::string& path) {
    namespace sj = socbuf::util;
    auto figure3 = sj::JsonValue::array();
    print_scaling(&figure3);
    auto root = sj::JsonValue::object();
    root.set("bench", std::string("parallel_scaling"));
    root.set("hardware_threads", socbuf::exec::resolve_thread_count(0));
    root.set("figure3_scaling", std::move(figure3));
    root.set("vi_sweep_scaling", vi_sweep_scaling());
    std::ofstream out(path);
    out << root.dump(2) << "\n";
    std::printf("wrote %s\n", path.c_str());
}

void BM_ReplicateLosses(benchmark::State& state) {
    const auto system = socbuf::arch::network_processor_system();
    socbuf::sim::SimConfig cfg;
    cfg.horizon = 1000.0;
    cfg.warmup = 100.0;
    cfg.seed = 2005;
    const std::vector<long> alloc(
        socbuf::arch::enumerate_buffer_sites(system.architecture).size(),
        10);
    socbuf::exec::Executor executor(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        auto r = socbuf::sim::replicate_losses(system, alloc, cfg, 10,
                                               executor);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_ReplicateLosses)->Arg(1)->Arg(2)->Arg(4)->Unit(
    benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    std::string json_path;
    for (int i = 1; i + 1 < argc; ++i)
        if (std::string(argv[i]) == "--json") json_path = argv[i + 1];
    if (!json_path.empty()) {
        // JSON mode is the CI/perf-trajectory entry point: the scaling
        // measurements once, no google-benchmark loop.
        write_json_report(json_path);
        return 0;
    }
    print_scaling(nullptr);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
