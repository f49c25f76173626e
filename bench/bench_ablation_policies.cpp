// E6 / ablation — sizing-policy comparison on the network processor:
// uniform (constant), traffic-ratio proportional (the strawman the paper's
// introduction dismisses) and the CTMDP engine.
// Also sweeps the timeout policy's threshold scale, documenting why a
// mean-level threshold is catastrophic.
#include "arch/presets.hpp"
#include "core/allocation.hpp"
#include "core/engine.hpp"
#include "exec/executor.hpp"
#include "sim/simulator.hpp"
#include "split/splitter.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

#include <benchmark/benchmark.h>

#include <cstdio>

namespace {

constexpr long kBudget = 320;
constexpr double kHorizon = 4000.0;
constexpr double kWarmup = 400.0;

double total_loss(const socbuf::arch::TestSystem& system,
                  const socbuf::core::Allocation& alloc,
                  std::size_t reps = 5) {
    socbuf::sim::SimConfig cfg;
    cfg.horizon = kHorizon;
    cfg.warmup = kWarmup;
    cfg.seed = 2005;
    socbuf::exec::Executor serial(1);
    const auto r =
        socbuf::sim::replicate_losses(system, alloc, cfg, reps, serial);
    return r.mean_total_lost;
}

void print_policy_comparison() {
    const auto system = socbuf::arch::network_processor_system();
    const auto split = socbuf::split::split_architecture(system);

    const auto uniform = socbuf::core::uniform_allocation(split, kBudget);
    const auto proportional =
        socbuf::core::proportional_allocation(split, kBudget);

    socbuf::core::SizingOptions opts;
    opts.total_budget = kBudget;
    opts.sim.horizon = kHorizon;
    opts.sim.warmup = kWarmup;
    opts.sim.seed = 2005;
    const auto report = socbuf::core::BufferSizingEngine(opts).run(system);

    std::printf("\n=== Ablation: sizing policies at budget %ld ===\n",
                kBudget);
    socbuf::util::Table t({"policy", "total loss", "vs uniform"});
    const double base = total_loss(system, uniform);
    auto row = [&](const char* name, double loss) {
        t.add_row({name, socbuf::util::format_fixed(loss, 1),
                   socbuf::util::format_fixed(100.0 * (1.0 - loss / base),
                                              1) +
                       "%"});
    };
    row("uniform (constant)", base);
    row("proportional (traffic ratios)", total_loss(system, proportional));
    row("CTMDP sizing (this paper)", total_loss(system, report.best));
    std::printf("%s", t.to_string().c_str());
    std::printf("the CTMDP allocation differs from the traffic-ratio "
                "split — the paper's Section 1 observation.\n");

    // Timeout threshold-scale sensitivity (why scale=1, the literal paper
    // reading, buries every other effect).
    std::printf("\n=== Ablation: timeout threshold scale ===\n");
    socbuf::util::Table ts({"scale x mean wait", "total loss"});
    socbuf::exec::Executor serial(1);
    for (const double scale : {1.0, 2.0, 4.0, 8.0}) {
        socbuf::sim::SimConfig cfg;
        cfg.horizon = kHorizon;
        cfg.warmup = kWarmup;
        cfg.seed = 2005;
        cfg.site_timeout_thresholds =
            socbuf::sim::calibrate_timeout(system, uniform, cfg, scale,
                                           serial)
                .site_thresholds;
        cfg.timeout_enabled = true;
        const auto r = socbuf::sim::simulate(system, uniform, cfg);
        ts.add_row({socbuf::util::format_fixed(scale, 1),
                    std::to_string(r.total_lost())});
    }
    std::printf("%s", ts.to_string().c_str());
}

void BM_CtmdpSizing(benchmark::State& state) {
    const auto system = socbuf::arch::network_processor_system();
    socbuf::core::SizingOptions opts;
    opts.total_budget = kBudget;
    opts.iterations = 3;
    opts.sim.horizon = 1200.0;
    opts.sim.warmup = 120.0;
    for (auto _ : state) {
        auto r = socbuf::core::BufferSizingEngine(opts).run(system);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_CtmdpSizing)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

int main(int argc, char** argv) {
    print_policy_comparison();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
