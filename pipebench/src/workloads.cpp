#include "workloads.hpp"

#include "scenario/scenario.hpp"
#include "scenario/scenario_io.hpp"

#include <stdexcept>
#include <utility>

namespace pipebench {

namespace {

using socbuf::scenario::BatchPreset;
using socbuf::scenario::ScenarioRegistry;
using socbuf::scenario::ScenarioSpec;

/// vi-cluster keeps np-cluster-scaling's largest variant only (every one
/// of its buses goes to the VI rung), at its single budget, with fewer
/// sizing rounds and replications so one 1-thread plus 4-thread sample
/// stays near fifteen seconds on 4 cores. It also evaluates the timeout
/// policy (Figure 3's third bar), so sim::calibrate_timeout is measured.
constexpr const char* kViClusterVariant = "pe=6";
constexpr int kViClusterIterations = 2;
constexpr std::size_t kViClusterReplications = 2;

std::vector<ScenarioSpec> workload_specs(const ScenarioRegistry& registry,
                                         const std::string& workload) {
    if (workload == "vi-cluster") {
        ScenarioSpec spec = registry.get("np-cluster-scaling");
        std::vector<socbuf::scenario::ScenarioVariant> kept;
        for (const auto& variant : spec.variants)
            if (variant.label == kViClusterVariant) kept.push_back(variant);
        if (kept.size() != 1)
            throw std::logic_error("np-cluster-scaling lost its pe=6 variant");
        spec.variants = std::move(kept);
        spec.sizing_iterations = kViClusterIterations;
        spec.replications = kViClusterReplications;
        spec.evaluate_timeout_policy = true;
        return {spec};
    }
    if (workload == "insertion-search")
        return registry.expand("insertion-search");
    throw std::invalid_argument("unknown workload: " + workload);
}

}  // namespace

socbuf::util::JsonValue make_workload(const std::string& workload,
                                      std::uint64_t seed) {
    const ScenarioRegistry registry;  // the shipped presets
    std::vector<ScenarioSpec> specs = workload_specs(registry, workload);
    BatchPreset batch;
    batch.name = workload;
    batch.description = "pipebench workload " + workload;
    for (ScenarioSpec& spec : specs) {
        spec.sim.seed = seed;
        batch.scenarios.push_back(spec.name);
    }
    return socbuf::scenario::catalog_to_json(specs, {batch});
}

}  // namespace pipebench
