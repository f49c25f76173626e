// Declarative scenario descriptions — the layer that turns "two hard-coded
// experiments" into a catalog of runnable workloads.
//
// A ScenarioSpec names a testbench preset (Figure 1 sample or the
// network-processor testbench), the parameter variants to build it at
// (NetworkProcessorParams scales: offered load, bus speed, cluster size),
// the buffer budgets to size under, how many evaluation replications to
// average, and the solver / model / simulation knobs of the sizing engine.
// A spec therefore expands into (variants x budgets) sizing runs and
// (variants x budgets x replications) evaluation jobs — the unit of work
// scenario::BatchRunner fans across a shared exec::Executor.
//
// ScenarioRegistry is the named-preset catalog (figure1; np-baseline, the
// paper's Table 1; figure3, its Figure 3; the np-* sweeps); tools
// (socbuf_cli) and benches look scenarios up by name instead of
// hard-coding parameters.
#pragma once

#include "arch/presets.hpp"
#include "core/engine.hpp"
#include "sim/config.hpp"

#include <cstddef>
#include <string>
#include <vector>

namespace socbuf::util {
class JsonValue;
}

namespace socbuf::scenario {

struct ScenarioDocument;  // scenario_io.hpp

/// Which reconstructed system a scenario runs on.
enum class Testbench { kFigure1, kNetworkProcessor };

[[nodiscard]] const char* to_string(Testbench testbench);
/// Inverse of to_string; false when `text` names no testbench.
[[nodiscard]] bool testbench_from_string(const std::string& text,
                                         Testbench& out);

/// One parameterization of the testbench. The label names the point in a
/// sweep ("load=0.8"); `np` is ignored by Testbench::kFigure1, which has
/// no free parameters.
struct ScenarioVariant {
    std::string label;
    arch::NetworkProcessorParams np;
};

[[nodiscard]] bool operator==(const ScenarioVariant& a,
                              const ScenarioVariant& b);
inline bool operator!=(const ScenarioVariant& a, const ScenarioVariant& b) {
    return !(a == b);
}

/// Buffer-insertion knobs of a scenario — schema v2's $.insertion block.
/// With search off (the default) every run keeps the fixed all-selected
/// preset placement and reports are byte-identical to pre-search socbuf;
/// with search on, each (variant, budget) run first searches placements
/// over the candidate bridge sites (insertion::search_placements) and
/// then sizes under the winning placement at the same total budget.
struct InsertionSpec {
    bool search = false;
    /// Candidate site names (BufferSite::name) to search over; empty
    /// means every traffic-carrying bridge site of the built system.
    /// Names must resolve to bridge sites of the testbench.
    std::vector<std::string> candidates;
    /// Per-kind unit costs fed to arch::SiteCostModel — the plan-cost
    /// axis of the search's dominance pruning. The sizing budget itself
    /// is unaffected.
    double processor_site_cost = 1.0;
    double bridge_site_cost = 1.0;
    /// Candidate counts up to this run the exhaustive 2^n sweep; larger
    /// sets take the pruned staged search.
    std::size_t exhaustive_limit = 4;
};

[[nodiscard]] bool operator==(const InsertionSpec& a, const InsertionSpec& b);
inline bool operator!=(const InsertionSpec& a, const InsertionSpec& b) {
    return !(a == b);
}

struct ScenarioSpec {
    std::string name;
    std::string description;
    Testbench testbench = Testbench::kNetworkProcessor;
    /// At least one; single-variant scenarios use one empty-labeled entry.
    std::vector<ScenarioVariant> variants{{std::string{}, {}}};
    /// Total buffer budgets to size under (one sizing run per budget).
    std::vector<long> budgets{320};
    /// Evaluation replications per (variant, budget); replication r
    /// simulates with seed sim.seed + r, so means are comparable across
    /// scenarios.
    std::size_t replications = 1;
    int sizing_iterations = 10;
    /// Replications of each sizing round's evaluation sim inside the
    /// engine (SizingOptions::eval_replications): > 1 smooths the
    /// measured-rate feedback and fans the sims across the shared
    /// executor; 1 keeps the classic single-sim rounds.
    std::size_t sizing_eval_replications = 1;
    core::SolverChoice solver = core::SolverChoice::kAuto;
    /// Burst-aware (MMPP) subsystem CTMDPs instead of Poisson models.
    bool use_modulated_models = false;
    /// Also evaluate the paper's timeout-drop policy on the constant
    /// allocation (the third bar of Figure 3).
    bool evaluate_timeout_policy = false;
    double timeout_threshold_scale = 4.0;
    /// Replications of the timeout-calibration simulation ("the average
    /// time spent by a request in a buffer", read without the timeout
    /// policy): > 1 averages independent no-timeout sims (seeds
    /// sim.seed, sim.seed + 1, ...), fanned across the shared executor
    /// inside the sizing job; 1 (the default) reproduces the classic
    /// single-sim calibration bit for bit. Ignored unless
    /// evaluate_timeout_policy is set.
    std::size_t calibration_replications = 1;
    /// Buffer-insertion search (schema v2); default = search off, fixed
    /// all-selected placement, byte-identical legacy reports.
    InsertionSpec insertion;
    sim::SimConfig sim;

    /// Build the testbench system for `variant` (index into variants).
    [[nodiscard]] arch::TestSystem build_system(std::size_t variant) const;

    /// Engine options for one budget. They name no worker count: the
    /// batch runs every engine on its shared executor.
    [[nodiscard]] core::SizingOptions sizing_options(long budget) const;

    /// variants x budgets — the number of sizing runs the spec expands to.
    [[nodiscard]] std::size_t run_count() const {
        return variants.size() * budgets.size();
    }
    /// run_count x replications — the number of evaluation jobs.
    [[nodiscard]] std::size_t job_count() const {
        return run_count() * replications;
    }

    /// Structural checks (non-empty variants/budgets, positive budgets and
    /// replications, ...). Throws util::ContractViolation.
    void validate() const;
};

/// Field-by-field equality — the contract behind the JSON round trip
/// (scenario_io): from_json(to_json(spec)) == spec for every spec whose
/// numbers survive a double round trip (all built-in presets do).
[[nodiscard]] bool operator==(const ScenarioSpec& a, const ScenarioSpec& b);
inline bool operator!=(const ScenarioSpec& a, const ScenarioSpec& b) {
    return !(a == b);
}

/// A named list of registered scenarios run as one batch — the unit the
/// CLI's `run <name>` accepts beside single scenarios. Batches may mix
/// testbenches (the built-in "paper-suite" runs figure1 and np-baseline
/// together).
struct BatchPreset {
    std::string name;
    std::string description;
    std::vector<std::string> scenarios;  // registered scenario names
};

/// The named-preset catalog. Default construction registers the built-in
/// presets; add() lets callers define their own (same-name replaces).
/// Scenarios are equally loadable from JSON files (load_file/load_json,
/// the scenario_io schema), so the catalog is data, not code.
class ScenarioRegistry {
public:
    ScenarioRegistry();

    void add(ScenarioSpec spec);
    [[nodiscard]] bool contains(const std::string& name) const;
    /// Throws util::ContractViolation for unknown names.
    [[nodiscard]] const ScenarioSpec& get(const std::string& name) const;
    [[nodiscard]] std::size_t size() const { return specs_.size(); }
    [[nodiscard]] const std::vector<ScenarioSpec>& specs() const {
        return specs_;
    }

    /// Register every scenario in a scenario_io JSON document (a single
    /// spec object or {"scenarios": [...]}); returns how many were added.
    /// Throws ScenarioIoError with the offending JSON path on malformed
    /// input; on error the registry is unchanged.
    std::size_t load_json(const util::JsonValue& document);
    /// As load_json, on raw JSON text (parse errors become ScenarioIoError).
    std::size_t load_text(const std::string& text);
    /// As load_json, reading `path`; unreadable files throw ScenarioIoError
    /// naming the file.
    std::size_t load_file(const std::string& path);

    /// Named batch presets (lists of registered scenarios).
    void add_batch(BatchPreset batch);
    [[nodiscard]] bool contains_batch(const std::string& name) const;
    /// Throws util::ContractViolation for unknown names.
    [[nodiscard]] const BatchPreset& get_batch(const std::string& name) const;
    [[nodiscard]] const std::vector<BatchPreset>& batches() const {
        return batches_;
    }
    /// Resolve `name` to specs: a batch expands to its members, a plain
    /// scenario to itself. Throws util::ContractViolation for unknown
    /// names.
    [[nodiscard]] std::vector<ScenarioSpec> expand(
        const std::string& name) const;

private:
    /// Adopt a deserialized document atomically: batch members are
    /// resolved (against existing + incoming scenarios) before anything
    /// is registered. Returns the scenario count.
    std::size_t adopt_document(ScenarioDocument doc);

    std::vector<ScenarioSpec> specs_;
    std::vector<BatchPreset> batches_;
};

}  // namespace socbuf::scenario
