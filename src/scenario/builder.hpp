// ScenarioBuilder — the fluent way to define a ScenarioSpec in code,
// replacing aggregate-initialization sprawl in experiments, benches and
// examples:
//
//     const auto spec = scenario::ScenarioBuilder("np-budget-sweep")
//                           .budgets({160, 320, 640})
//                           .replications(5)
//                           .sizing_iterations(6)
//                           .horizon(2000.0, 200.0)
//                           .seed(2005)
//                           .build();
//
// build() runs ScenarioSpec::validate(), so a malformed chain fails at
// construction with the contract diagnostic, not deep inside a batch.
// The first variant()/variants() call replaces the default single
// unlabeled variant; later calls append.
#pragma once

#include "scenario/scenario.hpp"

#include <utility>

namespace socbuf::scenario {

class ScenarioBuilder {
public:
    explicit ScenarioBuilder(std::string name) { spec_.name = std::move(name); }

    ScenarioBuilder& description(std::string text) {
        spec_.description = std::move(text);
        return *this;
    }
    ScenarioBuilder& testbench(Testbench testbench) {
        spec_.testbench = testbench;
        return *this;
    }
    /// Append one variant (the first call drops the default entry).
    ScenarioBuilder& variant(std::string label,
                             arch::NetworkProcessorParams np = {}) {
        if (!explicit_variants_) {
            spec_.variants.clear();
            explicit_variants_ = true;
        }
        spec_.variants.push_back({std::move(label), std::move(np)});
        return *this;
    }
    /// Replace the variant list wholesale.
    ScenarioBuilder& variants(std::vector<ScenarioVariant> variants) {
        spec_.variants = std::move(variants);
        explicit_variants_ = true;
        return *this;
    }
    ScenarioBuilder& budgets(std::vector<long> budgets) {
        spec_.budgets = std::move(budgets);
        return *this;
    }
    ScenarioBuilder& replications(std::size_t count) {
        spec_.replications = count;
        return *this;
    }
    ScenarioBuilder& sizing_iterations(int iterations) {
        spec_.sizing_iterations = iterations;
        return *this;
    }
    ScenarioBuilder& sizing_eval_replications(std::size_t count) {
        spec_.sizing_eval_replications = count;
        return *this;
    }
    ScenarioBuilder& solver(core::SolverChoice solver) {
        spec_.solver = solver;
        return *this;
    }
    ScenarioBuilder& modulated_models(bool on = true) {
        spec_.use_modulated_models = on;
        return *this;
    }
    /// Evaluate the paper's timeout-drop policy alongside (Figure 3's
    /// third bar), thresholded at `scale` times the mean buffer wait.
    ScenarioBuilder& timeout_policy(double scale = 4.0) {
        spec_.evaluate_timeout_policy = true;
        spec_.timeout_threshold_scale = scale;
        return *this;
    }
    /// Average `count` independent timeout-calibration sims (fanned
    /// across the shared executor); 1 keeps the classic single-sim
    /// calibration bit for bit.
    ScenarioBuilder& calibration_replications(std::size_t count) {
        spec_.calibration_replications = count;
        return *this;
    }
    /// Simulation horizon; `warmup` < 0 keeps a 10% warmup.
    ScenarioBuilder& horizon(double horizon, double warmup = -1.0) {
        spec_.sim.horizon = horizon;
        spec_.sim.warmup = warmup >= 0.0 ? warmup : horizon / 10.0;
        return *this;
    }
    ScenarioBuilder& seed(std::uint64_t seed) {
        spec_.sim.seed = seed;
        return *this;
    }
    ScenarioBuilder& arbiter(sim::ArbiterKind arbiter) {
        spec_.sim.arbiter = arbiter;
        return *this;
    }
    /// Replace the whole evaluation sim config.
    ScenarioBuilder& sim(sim::SimConfig config) {
        spec_.sim = std::move(config);
        return *this;
    }
    /// Replace the buffer-insertion placement-search block (v2 schema's
    /// $.insertion).
    ScenarioBuilder& insertion(InsertionSpec insertion) {
        spec_.insertion = std::move(insertion);
        return *this;
    }

    /// Validate and return the spec (throws util::ContractViolation on a
    /// malformed chain).
    [[nodiscard]] ScenarioSpec build() const {
        spec_.validate();
        return spec_;
    }

private:
    ScenarioSpec spec_;
    bool explicit_variants_ = false;
};

}  // namespace socbuf::scenario
