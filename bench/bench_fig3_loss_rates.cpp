// E3 — Figure 3: per-processor loss under (1) constant sizing, (2) CTMDP
// resizing, (3) the timeout policy, on the network-processor testbench at
// total budget 320, averaged over 10 replications as in the paper — the
// `figure3` catalog preset.
#include "session/session.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

#include <benchmark/benchmark.h>

#include <cstdio>

namespace {

void print_figure3() {
    socbuf::Session session({1});
    const auto spec = session.registry().get("figure3");
    const auto report = session.run(spec);
    const auto& r = report.runs.front();

    std::printf("\n=== Figure 3: loss per processor (budget %ld, %zu "
                "replications) ===\n",
                r.budget, spec.replications);
    socbuf::util::Table t({"processor", "constant", "resized", "timeout",
                           "alloc pre", "alloc post"});
    for (std::size_t p = 0; p < r.pre_loss.size(); ++p) {
        t.add_row({std::to_string(p + 1),
                   socbuf::util::format_fixed(r.pre_loss[p], 1),
                   socbuf::util::format_fixed(r.post_loss[p], 1),
                   socbuf::util::format_fixed(r.timeout_loss[p], 1),
                   std::to_string(r.constant_alloc[p]),
                   std::to_string(r.resized_alloc[p])});
    }
    t.add_row({"TOTAL", socbuf::util::format_fixed(r.pre_total, 1),
               socbuf::util::format_fixed(r.post_total, 1),
               socbuf::util::format_fixed(r.timeout_total, 1), "-", "-"});
    std::printf("%s", t.to_string().c_str());
    std::printf("timeout threshold (scaled mean wait): %.3f\n",
                r.timeout_threshold);
    std::printf("loss reduction of resizing vs constant: %.1f%%  "
                "(paper: ~20%%)\n",
                100.0 * r.improvement());
    const double gain_vs_timeout =
        r.timeout_total > 0.0 ? 1.0 - r.post_total / r.timeout_total : 0.0;
    std::printf("loss reduction of resizing vs timeout:  %.1f%%  "
                "(paper: ~50%%)\n",
                100.0 * gain_vs_timeout);
}

void BM_Figure3Pipeline(benchmark::State& state) {
    socbuf::Session session({1});
    auto spec = session.registry().get("figure3");
    spec.sim.horizon = 1200.0;
    spec.sim.warmup = 120.0;
    spec.replications = 2;
    spec.sizing_iterations = 3;
    for (auto _ : state) {
        auto r = session.run(spec);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_Figure3Pipeline)->Unit(benchmark::kMillisecond)->Iterations(2);

}  // namespace

int main(int argc, char** argv) {
    print_figure3();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
