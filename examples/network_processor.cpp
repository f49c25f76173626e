// The network-processor testbench behind Figure 3 and Table 1, walked
// through step by step: topology, subsystems, sizing, and the paper's
// before/after/timeout comparison at a chosen budget (the `figure3`
// catalog preset at 5 replications).
//
//   $ ./network_processor [budget]        (default budget: 320)
#include "arch/presets.hpp"
#include "session/session.hpp"
#include "split/splitter.hpp"

#include <cstdio>
#include <cstdlib>

int main(int argc, char** argv) {
    using namespace socbuf;
    const long budget = argc > 1 ? std::atol(argv[1]) : 320;

    const auto system = arch::network_processor_system();
    std::printf("network processor: %zu processors on %zu buses, %zu "
                "bridges\n",
                system.architecture.processor_count(),
                system.architecture.bus_count(),
                system.architecture.bridge_count());
    const auto split = split::split_architecture(system);
    for (const auto& sub : split.subsystems)
        std::printf("  bus %-9s rho=%.2f (%zu queues)\n",
                    sub.bus_name.c_str(), sub.utilization(),
                    sub.flows.size());

    Session session({1});
    auto spec = session.registry().get("figure3");
    spec.budgets = {budget};
    spec.replications = 5;
    const auto report = session.run(spec);
    const auto& r = report.runs.front();

    std::printf("\nper-processor loss at budget %ld "
                "(constant | resized | timeout):\n",
                budget);
    for (std::size_t p = 0; p < r.pre_loss.size(); ++p) {
        std::printf("  proc %2zu: %7.1f | %7.1f | %7.1f", p + 1,
                    r.pre_loss[p], r.post_loss[p], r.timeout_loss[p]);
        if (r.post_loss[p] > r.pre_loss[p] + 0.5)
            std::printf("   <- worse after resizing (tight budget)");
        std::printf("\n");
    }
    std::printf("totals: %.0f | %.0f | %.0f\n", r.pre_total, r.post_total,
                r.timeout_total);
    std::printf("resizing vs constant: %.1f%% less loss\n",
                100.0 * r.improvement());
    std::printf("resizing vs timeout:  %.1f%% less loss\n",
                r.timeout_total > 0.0
                    ? 100.0 * (1.0 - r.post_total / r.timeout_total)
                    : 0.0);
    return 0;
}
