// A1 — CTMDP solver cross-validation and scaling, driven through the
// unified solver registry (ctmdp/solver.hpp): the Feinberg LP, relative
// value iteration and Howard policy iteration must agree on the optimal
// average cost; their runtimes scale very differently with the state
// space, which is why the registry's kAuto dispatch escalates
// LP -> PI -> VI by model size.
//
// `--json <file>` switches to the structure-exploitation measurement:
// dense vs banded policy-iteration evaluation per cap and VI at scale,
// written as one JSON document (the perf-trajectory format under BENCH_*.json) — the
// google-benchmark loop is skipped in that mode.
#include "arch/presets.hpp"
#include "core/allocation.hpp"
#include "core/subsystem_model.hpp"
#include "ctmc/stationary.hpp"
#include "ctmdp/occupation.hpp"
#include "ctmdp/solver.hpp"
#include "ctmdp/value_iteration.hpp"
#include "exec/executor.hpp"
#include "split/splitter.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace {

/// A bus-b style subsystem model at a given per-flow cap.
socbuf::core::SubsystemCtmdp make_model(long cap) {
    static const auto sys = socbuf::arch::figure1_system();
    static const auto split = socbuf::split::split_architecture(sys);
    const socbuf::split::Subsystem* bus_b = nullptr;
    for (const auto& sub : split.subsystems)
        if (sub.bus_name == "b") bus_b = &sub;
    std::vector<long> caps(bus_b->flows.size(), cap);
    std::vector<double> rates;
    for (const auto& f : bus_b->flows)
        rates.push_back(f.arrival_rate);
    return socbuf::core::SubsystemCtmdp(*bus_b, caps, rates);
}

/// An np-cluster-scaling ingress-bus subsystem model: pe PEs per cluster,
/// every flow capped at `cap` — the wide-band family whose state count
/// grows as (cap + 1)^(pe + 1), i.e. the VI-rung frontier. Returns the
/// CTMDP by value (the split it was built from is a local).
socbuf::ctmdp::CtmdpModel make_np_cluster_model(std::size_t pe, long cap) {
    socbuf::arch::NetworkProcessorParams params;
    params.pe_per_cluster = pe;
    const auto sys = socbuf::arch::network_processor_system(params);
    const auto split = socbuf::split::split_architecture(sys);
    const socbuf::split::Subsystem* bus = nullptr;
    for (const auto& sub : split.subsystems)
        if (sub.bus_name == "ingress") bus = &sub;
    std::vector<long> caps(bus->flows.size(), cap);
    std::vector<double> rates;
    for (const auto& f : bus->flows) rates.push_back(f.arrival_rate);
    return socbuf::core::SubsystemCtmdp(*bus, caps, rates).model();
}

socbuf::ctmdp::DispatchOptions forced(socbuf::ctmdp::SolverChoice choice) {
    socbuf::ctmdp::DispatchOptions d;
    d.choice = choice;
    return d;
}

void print_agreement() {
    using socbuf::ctmdp::SolverChoice;
    std::printf("\n=== A1: LP vs value iteration vs policy iteration"
                " (via SolverRegistry) ===\n");
    socbuf::ctmdp::SolverRegistry registry;
    socbuf::util::Table t({"cap", "states", "pairs", "LP gain", "VI gain",
                           "PI gain", "auto picks"});
    for (const long cap : {1L, 2L, 3L, 4L}) {
        const auto model = make_model(cap);
        const auto lp =
            registry.solve(model.model(), forced(SolverChoice::kLp));
        const auto vi = registry.solve(model.model(),
                                       forced(SolverChoice::kValueIteration));
        const auto pi = registry.solve(
            model.model(), forced(SolverChoice::kPolicyIteration));
        const auto picked = registry.select(model.model(), {});
        t.add_row({std::to_string(cap),
                   std::to_string(model.model().state_count()),
                   std::to_string(model.model().pair_count()),
                   socbuf::util::format_fixed(lp.gain, 6),
                   socbuf::util::format_fixed(vi.gain, 6),
                   socbuf::util::format_fixed(pi.gain, 6),
                   socbuf::ctmdp::to_string(picked)});
    }
    std::printf("%s", t.to_string().c_str());
    const auto stats = registry.stats();
    std::printf("registry stats: %zu lp / %zu vi / %zu pi solves, "
                "%zu switching states\n",
                stats.lp_solves, stats.vi_solves, stats.pi_solves,
                stats.switching_states);
}

/// Wall-clock spread of k repetitions of one measurement.
struct Timing {
    double median = 0.0;
    double min = 0.0;
    double max = 0.0;
};

/// Time `run` `reps` times; `reps` is odd, so the median is a sample.
template <typename Fn>
Timing time_reps(int reps, Fn&& run) {
    std::vector<double> samples;
    for (int r = 0; r < reps; ++r) {
        const auto start = std::chrono::steady_clock::now();
        run();
        const auto stop = std::chrono::steady_clock::now();
        samples.push_back(std::chrono::duration<double>(stop - start).count());
    }
    std::sort(samples.begin(), samples.end());
    return {samples[samples.size() / 2], samples.front(), samples.back()};
}

/// Wall-clock of one registry solve.
Timing time_solve(const socbuf::ctmdp::CtmdpModel& model,
                  const socbuf::ctmdp::DispatchOptions& dispatch, int reps) {
    socbuf::ctmdp::SolverRegistry registry;
    return time_reps(reps, [&] {
        auto solution = registry.solve(model, dispatch);
        benchmark::DoNotOptimize(solution);
    });
}

/// Wall-clock of relative_value_iteration alone: the sweeps, without the
/// registry's post-solve stationary/occupation pass.
Timing time_vi(const socbuf::ctmdp::CtmdpModel& model,
               const socbuf::ctmdp::ViOptions& options, int reps) {
    return time_reps(reps, [&] {
        auto result = socbuf::ctmdp::relative_value_iteration(model, options);
        benchmark::DoNotOptimize(result);
    });
}

/// Record a Timing as `<key>` (the median) plus `<key>_min` / `<key>_max`.
void set_timing(socbuf::util::JsonValue& row, const std::string& key,
                const Timing& t) {
    row.set(key, t.median);
    row.set(key + "_min", t.min);
    row.set(key + "_max", t.max);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The --json measurement: dense vs banded PI evaluation per cap (the
/// structural speedup behind kAuto's widened pi_state_limit), then VI at
/// scale.
void write_json_report(const std::string& path) {
    using socbuf::ctmdp::SolverChoice;
    namespace sj = socbuf::util;

    // Every timed cell is the median of kReps runs, with the min and
    // max beside it: one sample of a sub-second solve on a shared
    // machine is noise, not a measurement.
    constexpr int kReps = 5;

    auto dense_vs_banded = sj::JsonValue::array();
    for (const long cap : {2L, 3L, 4L, 6L}) {
        const auto model = make_model(cap);
        auto dense = forced(SolverChoice::kPolicyIteration);
        dense.solver.pi.banded_evaluation = false;
        auto banded = forced(SolverChoice::kPolicyIteration);
        banded.solver.pi.banded_evaluation = true;
        const Timing dense_t = time_solve(model.model(), dense, kReps);
        const Timing banded_t = time_solve(model.model(), banded, kReps);
        auto row = sj::JsonValue::object();
        row.set("cap", cap);
        row.set("states", model.model().state_count());
        row.set("bandwidth", model.model().bandwidth());
        set_timing(row, "dense_pi_s", dense_t);
        set_timing(row, "banded_pi_s", banded_t);
        row.set("speedup", ratio(dense_t.median, banded_t.median));
        dense_vs_banded.push_back(std::move(row));
        std::printf("cap %ld (%zu states, bw %zu): dense PI %.6fs, banded "
                    "PI %.6fs (%.2fx)\n",
                    cap, model.model().state_count(),
                    model.model().bandwidth(), dense_t.median,
                    banded_t.median, ratio(dense_t.median, banded_t.median));
    }

    // VI at scale: the fanned Jacobi sweep, serial and executor-fanned
    // at four workers (bit-identical to serial by contract — the
    // parallel4_identical flag verifies it), against the default
    // in-place Gauss–Seidel sweep (serial), at the engine's VI-rung
    // tolerance. The *_s columns time a whole registry solve (VI plus the
    // post-solve stationary pass); jacobi_vi_s times the serial Jacobi
    // sweeps alone, and vi_ns_per_state_sweep divides it by states x
    // iterations. gs_vi_s and gs_ns_per_state_sweep do the same for the
    // Gauss–Seidel sweeps, Bellman and evaluation alike, and
    // gs_bellman_sweeps counts the Bellman ones; gs_policy_matches_jacobi
    // compares the two sweeps' tie-robust policies state by state.
    // gs_speedup compares serial solves. Models: the
    // figure-1 bus-b family (narrow band) and the np-cluster-scaling
    // ingress buses at pe 6 and 8 (wide band). The pe-8 cap-3 model
    // (262144 states, ~45 s serial) and pe >= 10 are beyond the CI
    // budget and deliberately not measured here — the cap is the pe-8
    // cap-2 model at 19683 states (see bench/README.md). stationary_s
    // times the post-solve pass alone (occupation_of_policy on the
    // Jacobi policy: the gather build and its Gauss–Seidel sweeps), and
    // stationary_sweeps counts those sweeps.
    auto vi_scaling = sj::JsonValue::array();
    {
        struct ViCase {
            const char* label;
            socbuf::ctmdp::CtmdpModel model;
        };
        std::vector<ViCase> cases;
        cases.push_back({"figure1-bus-b cap=6", make_model(6).model()});
        cases.push_back({"figure1-bus-b cap=8", make_model(8).model()});
        cases.push_back({"np-ingress pe=6 cap=2", make_np_cluster_model(6, 2)});
        cases.push_back({"np-ingress pe=6 cap=3", make_np_cluster_model(6, 3)});
        cases.push_back({"np-ingress pe=8 cap=2", make_np_cluster_model(8, 2)});
        socbuf::exec::Executor four(4);
        for (auto& c : cases) {
            const auto& model = c.model;
            auto jacobi = forced(SolverChoice::kValueIteration);
            jacobi.solver.vi.sweep = socbuf::ctmdp::ViSweep::kJacobi;
            jacobi.solver.vi.tolerance = 1e-7;       // the engine's VI rung
            jacobi.solver.vi.max_iterations = 50000;
            auto fanned = jacobi;
            fanned.solver.vi.executor = &four;
            fanned.solver.vi.parallel_min_states = 1;  // fan even small rows
            auto gs = jacobi;
            gs.solver.vi.sweep = socbuf::ctmdp::ViSweep::kGaussSeidel;

            socbuf::ctmdp::SolverRegistry registry;
            const auto serial_sol = registry.solve(model, jacobi);
            const auto fanned_sol = registry.solve(model, fanned);
            const auto gs_sol = registry.solve(model, gs);
            const bool identical = serial_sol.gain == fanned_sol.gain &&
                                   serial_sol.bias == fanned_sol.bias;
            const Timing serial_t = time_solve(model, jacobi, kReps);
            const Timing vi_t = time_vi(model, jacobi.solver.vi, kReps);
            const double vi_ns_per_state_sweep =
                ratio(vi_t.median * 1e9,
                      static_cast<double>(model.state_count()) *
                          static_cast<double>(serial_sol.iterations));
            const Timing fanned_t = time_solve(model, fanned, kReps);
            const Timing gs_t = time_solve(model, gs, kReps);
            const Timing gs_vi_t = time_vi(model, gs.solver.vi, kReps);
            using socbuf::ctmdp::relative_value_iteration;
            const auto jacobi_vi =
                relative_value_iteration(model, jacobi.solver.vi);
            const auto gs_vi = relative_value_iteration(model, gs.solver.vi);
            const bool policy_matches =
                gs_vi.policy.choices() == jacobi_vi.policy.choices();
            const double gs_ns_per_state_sweep =
                ratio(gs_vi_t.median * 1e9,
                      static_cast<double>(model.state_count()) *
                          static_cast<double>(gs_vi.iterations));
            const Timing stationary_t = time_reps(kReps, [&] {
                auto x = socbuf::ctmdp::occupation_of_policy(
                    model, serial_sol.policy);
                benchmark::DoNotOptimize(x);
            });
            // occupation_of_policy's tolerance and sweep cap.
            const std::size_t stationary_sweeps =
                socbuf::ctmc::stationary_gauss_seidel(
                    socbuf::ctmdp::policy_gather_chain(model,
                                                       serial_sol.policy),
                    1e-11, 500000)
                    .sweeps;
            const double iteration_ratio =
                ratio(static_cast<double>(serial_sol.iterations),
                      static_cast<double>(gs_sol.iterations));

            auto row = sj::JsonValue::object();
            row.set("label", std::string(c.label));
            row.set("states", model.state_count());
            row.set("bandwidth", model.bandwidth());
            row.set("reps", kReps);
            set_timing(row, "jacobi_s", serial_t);
            row.set("jacobi_iterations", serial_sol.iterations);
            set_timing(row, "jacobi_vi_s", vi_t);
            row.set("vi_ns_per_state_sweep", vi_ns_per_state_sweep);
            set_timing(row, "parallel4_s", fanned_t);
            row.set("parallel4_speedup",
                    ratio(serial_t.median, fanned_t.median));
            row.set("parallel4_identical", identical);
            set_timing(row, "stationary_s", stationary_t);
            row.set("stationary_sweeps", stationary_sweeps);
            set_timing(row, "gs_s", gs_t);
            row.set("gs_iterations", gs_sol.iterations);
            row.set("gs_bellman_sweeps", gs_vi.bellman_sweeps);
            set_timing(row, "gs_vi_s", gs_vi_t);
            row.set("gs_ns_per_state_sweep", gs_ns_per_state_sweep);
            row.set("gs_policy_matches_jacobi", policy_matches);
            row.set("gs_speedup", ratio(serial_t.median, gs_t.median));
            row.set("gs_iteration_ratio", iteration_ratio);
            row.set("gs_gain_delta", gs_sol.gain - serial_sol.gain);
            vi_scaling.push_back(std::move(row));
            std::printf(
                "%s (%zu states): jacobi %.3fs/%zu it (sweeps %.3fs, "
                "%.1f ns/state-sweep), parallel4 %.3fs (identical %s), "
                "stationary %.3fs/%zu sweeps, gs %.3fs/%zu it (%.2fx "
                "fewer sweeps, %zu Bellman; sweeps %.3fs, %.1f "
                "ns/state-sweep; policy matches jacobi %s)\n",
                c.label, model.state_count(), serial_t.median,
                serial_sol.iterations, vi_t.median, vi_ns_per_state_sweep,
                fanned_t.median, identical ? "yes" : "NO",
                stationary_t.median, stationary_sweeps, gs_t.median,
                gs_sol.iterations, iteration_ratio, gs_vi.bellman_sweeps,
                gs_vi_t.median, gs_ns_per_state_sweep,
                policy_matches ? "yes" : "NO");
        }
    }

    auto root = sj::JsonValue::object();
    root.set("bench", std::string("ctmdp_solvers"));
    root.set("dense_vs_banded_pi", std::move(dense_vs_banded));
    root.set("vi_scaling", std::move(vi_scaling));
    std::ofstream out(path);
    out << root.dump(2) << "\n";
    std::printf("wrote %s\n", path.c_str());
}

void BM_LpSolver(benchmark::State& state) {
    const auto model = make_model(state.range(0));
    socbuf::ctmdp::SolverRegistry registry;
    const auto dispatch = forced(socbuf::ctmdp::SolverChoice::kLp);
    for (auto _ : state) {
        auto r = registry.solve(model.model(), dispatch);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_LpSolver)->Arg(1)->Arg(2)->Arg(3)->Unit(
    benchmark::kMillisecond);

void BM_ValueIteration(benchmark::State& state) {
    const auto model = make_model(state.range(0));
    socbuf::ctmdp::SolverRegistry registry;
    const auto dispatch =
        forced(socbuf::ctmdp::SolverChoice::kValueIteration);
    for (auto _ : state) {
        auto r = registry.solve(model.model(), dispatch);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_ValueIteration)->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Arg(6)->Unit(
    benchmark::kMillisecond);

void BM_PolicyIteration(benchmark::State& state) {
    const auto model = make_model(state.range(0));
    socbuf::ctmdp::SolverRegistry registry;
    const auto dispatch =
        forced(socbuf::ctmdp::SolverChoice::kPolicyIteration);
    for (auto _ : state) {
        auto r = registry.solve(model.model(), dispatch);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_PolicyIteration)->Arg(1)->Arg(2)->Arg(3)->Unit(
    benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    std::string json_path;
    for (int i = 1; i + 1 < argc; ++i)
        if (std::string(argv[i]) == "--json") json_path = argv[i + 1];
    print_agreement();
    if (!json_path.empty()) {
        // JSON mode is the CI/perf-trajectory entry point: one
        // structured measurement, no google-benchmark loop.
        write_json_report(json_path);
        return 0;
    }
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
