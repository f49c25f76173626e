// Extension ablation — Poisson subsystem models (paper baseline, with the
// measured-occupancy profiling term) vs burst-aware MMPP-modulated models:
// per-model predicted loss on the hot bus, end-to-end sizing quality on
// the network processor, and the state-space cost of the richer model.
#include "arch/presets.hpp"
#include "core/engine.hpp"
#include "core/subsystem_model.hpp"
#include "ctmdp/lp_solver.hpp"
#include "exec/executor.hpp"
#include "sim/simulator.hpp"
#include "split/splitter.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

#include <benchmark/benchmark.h>

#include <cstdio>

namespace {

void print_model_comparison() {
    const auto sys = socbuf::arch::figure1_system();
    const auto split = socbuf::split::split_architecture(sys);
    std::printf("\n=== Extension: Poisson vs burst-aware (MMPP) models ===\n");
    socbuf::util::Table t({"bus", "cap", "poisson states",
                           "modulated states", "poisson loss",
                           "modulated loss"});
    for (const auto& sub : split.subsystems) {
        std::vector<long> caps(sub.flows.size(), 2);
        std::vector<double> rates;
        for (const auto& f : sub.flows) rates.push_back(f.arrival_rate);
        const socbuf::core::SubsystemCtmdp poisson(sub, caps, rates);
        const socbuf::core::SubsystemCtmdp modulated(sub, caps, rates,
                                                     /*modulated=*/true);
        const auto lp_p =
            socbuf::ctmdp::solve_average_cost_lp(poisson.model());
        const auto lp_m =
            socbuf::ctmdp::solve_average_cost_lp(modulated.model());
        t.add_row({sub.bus_name, "2",
                   std::to_string(poisson.model().state_count()),
                   std::to_string(modulated.model().state_count()),
                   socbuf::util::format_fixed(lp_p.average_cost, 4),
                   socbuf::util::format_fixed(lp_m.average_cost, 4)});
    }
    std::printf("%s", t.to_string().c_str());
    std::printf("the modulated model predicts higher loss on buses with "
                "bursty flows — the demand signal Poisson models miss.\n");
}

void print_sizing_comparison() {
    const auto sys = socbuf::arch::network_processor_system();
    std::printf("\n=== Extension: end-to-end sizing, model family x "
                "profiling ===\n");
    socbuf::util::Table t({"models", "occupancy profiling", "total loss"});
    for (const bool modulated : {false, true}) {
        for (const double occ_weight : {0.0, 2.5}) {
            socbuf::core::SizingOptions opts;
            opts.total_budget = 320;
            opts.use_modulated_models = modulated;
            opts.measured_occupancy_weight = occ_weight;
            opts.model_cap = modulated ? 2 : 3;
            opts.sim.horizon = 4000.0;
            opts.sim.warmup = 400.0;
            opts.sim.seed = 2005;
            const auto report =
                socbuf::core::BufferSizingEngine(opts).run(sys);
            socbuf::sim::SimConfig cfg = opts.sim;
            socbuf::exec::Executor serial(1);
            const auto eval = socbuf::sim::replicate_losses(
                sys, report.best, cfg, 5, serial);
            t.add_row({modulated ? "MMPP" : "Poisson",
                       occ_weight > 0.0 ? "on" : "off",
                       socbuf::util::format_fixed(eval.mean_total_lost, 1)});
        }
    }
    std::printf("%s", t.to_string().c_str());
}

void BM_ModulatedLp(benchmark::State& state) {
    const auto sys = socbuf::arch::figure1_system();
    const auto split = socbuf::split::split_architecture(sys);
    const socbuf::split::Subsystem* bus_b = nullptr;
    for (const auto& sub : split.subsystems)
        if (sub.bus_name == "b") bus_b = &sub;
    std::vector<long> caps(bus_b->flows.size(), state.range(0));
    std::vector<double> rates;
    for (const auto& f : bus_b->flows) rates.push_back(f.arrival_rate);
    const socbuf::core::SubsystemCtmdp m(*bus_b, caps, rates,
                                         /*modulated=*/true);
    for (auto _ : state) {
        auto r = socbuf::ctmdp::solve_average_cost_lp(m.model());
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_ModulatedLp)->Arg(1)->Arg(2)->Arg(3)->Unit(
    benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    print_model_comparison();
    print_sizing_comparison();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
