// E4 — Table 1: loss before/after CTMDP resizing under total buffer
// budgets 160, 320 and 640 — the `np-baseline` catalog preset. The paper
// highlights processors 1, 4, 15 and 16; we print those rows in the
// paper's layout plus the full per-budget totals.
#include "session/session.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

#include <benchmark/benchmark.h>

#include <cstdio>

namespace {

void print_table1() {
    socbuf::Session session({1});
    const auto spec = session.registry().get("np-baseline");
    const auto report = session.run(spec);

    std::printf("\n=== Table 1: loss under varying total buffer size "
                "(%zu replications) ===\n",
                spec.replications);
    std::vector<std::string> headers{"PROCESSOR"};
    for (const auto& run : report.runs) {
        headers.push_back("Buf" + std::to_string(run.budget) + " pre");
        headers.push_back("Buf" + std::to_string(run.budget) + " post");
    }
    socbuf::util::Table t(headers);
    // The processors the paper's Table 1 highlights (display ids).
    constexpr std::size_t kHighlighted[] = {1, 4, 15, 16};
    for (const std::size_t display : kHighlighted) {
        std::vector<std::string> cells{std::to_string(display)};
        for (const auto& run : report.runs) {
            cells.push_back(
                socbuf::util::format_fixed(run.pre_loss[display - 1], 0));
            cells.push_back(
                socbuf::util::format_fixed(run.post_loss[display - 1], 0));
        }
        t.add_row(std::move(cells));
    }
    {
        std::vector<std::string> cells{"TOTAL(all)"};
        for (const auto& run : report.runs) {
            cells.push_back(socbuf::util::format_fixed(run.pre_total, 0));
            cells.push_back(socbuf::util::format_fixed(run.post_total, 0));
        }
        t.add_row(std::move(cells));
    }
    std::printf("%s", t.to_string().c_str());
    std::printf("shape checks: post-loss decreases with budget, reaches "
                "~0 at 640 for the highlighted processors, and individual "
                "processors may worsen at 160 (see EXPERIMENTS.md).\n");
}

void BM_Table1SingleBudget(benchmark::State& state) {
    socbuf::Session session({1});
    auto spec = session.registry().get("np-baseline");
    spec.budgets = {state.range(0)};
    spec.sim.horizon = 1200.0;
    spec.sim.warmup = 120.0;
    spec.replications = 2;
    spec.sizing_iterations = 3;
    for (auto _ : state) {
        auto r = session.run(spec);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_Table1SingleBudget)
    ->Arg(160)
    ->Arg(320)
    ->Arg(640)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
    print_table1();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
