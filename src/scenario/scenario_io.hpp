// Scenarios as data: the complete JSON round trip for ScenarioSpec.
//
// to_json emits every field of a spec (defaults included), so a dumped
// document is a full, self-describing record of the workload; from_json
// reconstructs the spec with *strict* validation — unknown keys, type
// mismatches and out-of-range values all raise ScenarioIoError naming the
// offending JSON path ("$.variants[1].np.load_scale"), never a bare parse
// exception. The round trip is contractual:
//
//     spec_from_json(JsonValue::parse(to_json(spec).dump())) == spec
//
// for every spec whose numbers survive a double round trip — which all
// built-in presets do (util::JsonValue emits shortest round-trip doubles),
// pinned by tests/scenario_io_test.cpp.
//
// The schema (documented field by field in scenarios/README.md):
//
//   {
//     "version": 2,                       optional; absent = 1 (legacy);
//                                         1 or 2 accepted, anything else
//                                         is rejected at $.version
//     "name": "np-load-sweep",            required, non-empty
//     "description": "...",               optional string
//     "testbench": "network-processor",   "figure1" | "network-processor"
//     "variants": [                       optional, >= 1 entry
//       {"label": "load=0.80",
//        "np": {"pe_per_cluster": 4, "bus_rate_scale": 1.0,
//               "load_scale": 0.8, "cluster_pe": [6,4,2,4],
//               "crypto_cluster": true}}
//     ],
//     "budgets": [320],                   >= 1 entry, each >= 1
//     "replications": 5,                  >= 1
//     "sizing_iterations": 10,            >= 1
//     "sizing_eval_replications": 1,      >= 1
//     "solver": "auto",                   auto|lp|value-iteration|
//                                         policy-iteration
//     "gauss_seidel": false,              legacy, optional boolean;
//                                         either value is accepted and
//                                         ignored, never written
//     "modulated_models": false,
//     "evaluate_timeout_policy": false,
//     "timeout_threshold_scale": 4.0,     > 0
//     "insertion": {                      REQUIRED at version 2, rejected
//                                         below it ($.insertion names the
//                                         miss either way)
//       "search": false,                  placement search on/off
//       "candidates": ["bridge:..."],     site names; empty = every
//                                         traffic-carrying bridge site
//       "processor_site_cost": 1.0,       > 0
//       "bridge_site_cost": 1.0,          > 0
//       "exhaustive_limit": 4},           candidate counts <= this take
//                                         the exhaustive 2^n sweep
//     "sim": {"horizon": 4000.0, "warmup": 400.0, "seed": 2005,
//             "arbiter": "round-robin"}
//   }
//
// A *document* is either one spec object or a catalog
// {"scenarios": [spec, ...]} — registry.load_file and the CLI accept both.
// Catalogs may additionally carry user-defined batch presets:
// "batches": [{"name": "...", "description": "...", "scenarios": [names]}]
// (ScenarioRegistry::load_json registers them after validating every
// member against the registry's scenarios plus the document's own — a
// bad member leaves the registry untouched).
#pragma once

#include "scenario/scenario.hpp"
#include "util/json.hpp"

#include <stdexcept>
#include <string>
#include <vector>

namespace socbuf::scenario {

/// The scenario schema version this writer speaks. to_json stamps it on
/// every document; spec_from_json additionally accepts version-1 files
/// (absent = 1) where the v2-only keys ($.insertion) are rejected as
/// unknown, and rejects every other version with a $.version diagnostic.
/// Version 2 added the required $.insertion block and optional document-
/// level $.batches. Bump only with a migration story for the shipped
/// scenarios/ catalog.
inline constexpr int kScenarioSchemaVersion = 2;
inline constexpr int kLegacyScenarioSchemaVersion = 1;

/// A malformed scenario document: the message always leads with the JSON
/// path (or file name) of the offending value.
class ScenarioIoError : public std::runtime_error {
public:
    ScenarioIoError(std::string path, const std::string& what_arg)
        : std::runtime_error(path + ": " + what_arg),
          path_(std::move(path)) {}

    /// The JSON path ("$.budgets[2]") or file name the error points at.
    [[nodiscard]] const std::string& path() const { return path_; }

private:
    std::string path_;
};

/// Serialize one spec, emitting every field (defaults included).
[[nodiscard]] util::JsonValue to_json(const ScenarioSpec& spec);

/// Deserialize one spec object with strict validation; `path` prefixes
/// every diagnostic (default "$", the document root).
[[nodiscard]] ScenarioSpec spec_from_json(const util::JsonValue& value,
                                          const std::string& path = "$");

/// Deserialize a document: a single spec object or {"scenarios": [...]}.
/// Catalog-level "batches" are structurally validated but dropped — use
/// document_from_json when batch presets matter.
[[nodiscard]] std::vector<ScenarioSpec> specs_from_json(
    const util::JsonValue& document);

/// Everything a scenario document can carry: the specs plus any
/// document-level batch presets ({"batches": [...]}, v2 catalogs only).
struct ScenarioDocument {
    std::vector<ScenarioSpec> scenarios;
    std::vector<BatchPreset> batches;
};

/// Deserialize a document including its batch presets. Batch members are
/// checked structurally (non-empty names, >= 1 member) but NOT resolved
/// — a batch may reference registry presets the document does not carry;
/// ScenarioRegistry::load_json does the existence check.
[[nodiscard]] ScenarioDocument document_from_json(
    const util::JsonValue& document);

/// A catalog document {"scenarios": [...]} from `specs`, plus a
/// "batches" array when `batches` is non-empty.
[[nodiscard]] util::JsonValue catalog_to_json(
    const std::vector<ScenarioSpec>& specs,
    const std::vector<BatchPreset>& batches = {});

/// One registered name as a loadable document: a scenario as its spec
/// object, a batch preset as a catalog of its members. The single source
/// behind `socbuf_cli export`. Throws util::ContractViolation for unknown
/// names.
[[nodiscard]] util::JsonValue export_json(const ScenarioRegistry& registry,
                                          const std::string& name);

/// Read and deserialize a scenario file. Unreadable files and parse
/// errors throw ScenarioIoError naming the file.
[[nodiscard]] std::vector<ScenarioSpec> load_scenario_file(
    const std::string& path);

/// As load_scenario_file, keeping document-level batch presets.
[[nodiscard]] ScenarioDocument load_scenario_document(
    const std::string& path);

/// Solver-choice names used by the schema ("auto", "lp",
/// "value-iteration", "policy-iteration").
[[nodiscard]] const char* to_string(core::SolverChoice solver);
[[nodiscard]] bool solver_from_string(const std::string& text,
                                      core::SolverChoice& out);

/// Arbiter names used by the schema ("fixed-priority", "round-robin",
/// "longest-queue", "weighted-random").
[[nodiscard]] const char* to_string(sim::ArbiterKind arbiter);
[[nodiscard]] bool arbiter_from_string(const std::string& text,
                                       sim::ArbiterKind& out);

}  // namespace socbuf::scenario
