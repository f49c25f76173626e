#include "scenario/scenario_io.hpp"

#include "core/allocation.hpp"
#include "split/splitter.hpp"
#include "util/contracts.hpp"
#include "util/strings.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>

namespace socbuf::scenario {

namespace {

const char* kind_name(const util::JsonValue& value) {
    switch (value.kind()) {
        case util::JsonValue::Kind::kNull: return "null";
        case util::JsonValue::Kind::kBool: return "a boolean";
        case util::JsonValue::Kind::kNumber: return "a number";
        case util::JsonValue::Kind::kString: return "a string";
        case util::JsonValue::Kind::kArray: return "an array";
        case util::JsonValue::Kind::kObject: return "an object";
    }
    return "?";
}

[[noreturn]] void fail(const std::string& path, const std::string& what) {
    throw ScenarioIoError(path, what);
}

/// Strict object access: every key read is remembered, finish() rejects
/// whatever was not — the unknown-key diagnostic names the exact path.
class ObjectReader {
public:
    ObjectReader(const util::JsonValue& value, std::string path)
        : value_(value), path_(std::move(path)) {
        if (!value_.is_object())
            fail(path_, std::string("expected an object, got ") +
                            kind_name(value_));
    }

    /// The member, or nullptr when absent (absent = keep the default).
    const util::JsonValue* find(const std::string& key) {
        seen_.insert(key);
        return value_.contains(key) ? &value_.at(key) : nullptr;
    }

    const util::JsonValue& require(const std::string& key) {
        const util::JsonValue* member = find(key);
        if (member == nullptr) fail(path_, "missing required key '" + key + "'");
        return *member;
    }

    void finish() const {
        for (const auto& [key, member] : value_.members()) {
            (void)member;
            if (seen_.count(key) == 0)
                fail(path_ + "." + key, "unknown key");
        }
    }

    [[nodiscard]] const std::string& path() const { return path_; }

private:
    const util::JsonValue& value_;
    std::string path_;
    std::set<std::string> seen_;
};

double read_number(const util::JsonValue& value, const std::string& path) {
    if (value.kind() != util::JsonValue::Kind::kNumber)
        fail(path, std::string("expected a number, got ") + kind_name(value));
    return value.as_number();
}

bool read_bool(const util::JsonValue& value, const std::string& path) {
    if (value.kind() != util::JsonValue::Kind::kBool)
        fail(path, std::string("expected a boolean, got ") + kind_name(value));
    return value.as_bool();
}

std::string read_string(const util::JsonValue& value,
                        const std::string& path) {
    if (value.kind() != util::JsonValue::Kind::kString)
        fail(path, std::string("expected a string, got ") + kind_name(value));
    return value.as_string();
}

/// A whole number >= `min`. JSON numbers are doubles; fractions and
/// magnitudes past 2^53 (where doubles lose exactness) are malformed.
long long read_integer(const util::JsonValue& value, const std::string& path,
                       long long min) {
    const double number = read_number(value, path);
    if (std::floor(number) != number || std::abs(number) > 9.007199254740992e15)
        fail(path, "expected a whole number");
    const auto integer = static_cast<long long>(number);
    if (integer < min)
        fail(path, "must be >= " + std::to_string(min));
    return integer;
}

const util::JsonValue& element(const util::JsonValue& array,
                               const std::string& path) {
    if (!array.is_array())
        fail(path, std::string("expected an array, got ") + kind_name(array));
    return array;
}

std::string at_index(const std::string& path, std::size_t index) {
    return path + "[" + std::to_string(index) + "]";
}

arch::NetworkProcessorParams np_from_json(const util::JsonValue& value,
                                          const std::string& path) {
    arch::NetworkProcessorParams np;
    ObjectReader reader(value, path);
    if (const auto* pe = reader.find("pe_per_cluster")) {
        np.pe_per_cluster = static_cast<std::size_t>(
            read_integer(*pe, path + ".pe_per_cluster", 2));
    }
    if (const auto* scale = reader.find("bus_rate_scale")) {
        np.bus_rate_scale = read_number(*scale, path + ".bus_rate_scale");
        if (!(np.bus_rate_scale > 0.0))
            fail(path + ".bus_rate_scale", "must be > 0");
    }
    if (const auto* scale = reader.find("load_scale")) {
        np.load_scale = read_number(*scale, path + ".load_scale");
        if (!(np.load_scale > 0.0)) fail(path + ".load_scale", "must be > 0");
    }
    if (const auto* cluster = reader.find("cluster_pe")) {
        const std::string cluster_path = path + ".cluster_pe";
        element(*cluster, cluster_path);
        for (std::size_t i = 0; i < cluster->size(); ++i)
            np.cluster_pe.push_back(static_cast<std::size_t>(read_integer(
                cluster->at(i), at_index(cluster_path, i), 2)));
        if (!np.cluster_pe.empty() && np.cluster_pe.size() != 4)
            fail(cluster_path,
                 "must be empty or name all four clusters (ingress, "
                 "classify, crypto, egress)");
    }
    if (const auto* crypto = reader.find("crypto_cluster"))
        np.crypto_cluster = read_bool(*crypto, path + ".crypto_cluster");
    reader.finish();
    return np;
}

ScenarioVariant variant_from_json(const util::JsonValue& value,
                                  const std::string& path) {
    ScenarioVariant variant;
    ObjectReader reader(value, path);
    if (const auto* label = reader.find("label"))
        variant.label = read_string(*label, path + ".label");
    if (const auto* np = reader.find("np"))
        variant.np = np_from_json(*np, path + ".np");
    reader.finish();
    return variant;
}

sim::SimConfig sim_from_json(const util::JsonValue& value,
                             const std::string& path) {
    sim::SimConfig sim;
    ObjectReader reader(value, path);
    if (const auto* horizon = reader.find("horizon")) {
        sim.horizon = read_number(*horizon, path + ".horizon");
        if (!(sim.horizon > 0.0)) fail(path + ".horizon", "must be > 0");
    }
    const bool explicit_warmup = reader.find("warmup") != nullptr;
    if (explicit_warmup) {
        sim.warmup = read_number(value.at("warmup"), path + ".warmup");
        if (!(sim.warmup >= 0.0)) fail(path + ".warmup", "must be >= 0");
    }
    if (const auto* seed = reader.find("seed"))
        sim.seed = static_cast<std::uint64_t>(
            read_integer(*seed, path + ".seed", 0));
    // Legacy key: every bus arbitrates round-robin. Older files still
    // load when they ask for it; any other discipline is an error, since
    // running round-robin instead would change the run silently.
    if (const auto* arbiter = reader.find("arbiter")) {
        const std::string name = read_string(*arbiter, path + ".arbiter");
        if (name != "round-robin")
            fail(path + ".arbiter",
                 "arbiter '" + name +
                     "' was removed; round-robin is the only arbiter "
                     "(drop the key)");
    }
    if (sim.warmup >= sim.horizon) {
        // Blame the key the document actually wrote: with no explicit
        // warmup the conflict comes from the horizon undercutting the
        // *default* warmup, which would otherwise be invisible.
        if (explicit_warmup)
            fail(path + ".warmup", "must be below the simulation horizon");
        fail(path + ".horizon",
             "must exceed the default warmup (" +
                 util::format_compact(sim.warmup) + "); set " + path +
                 ".warmup explicitly");
    }
    reader.finish();
    return sim;
}

InsertionSpec insertion_from_json(const util::JsonValue& value,
                                  const std::string& path) {
    InsertionSpec insertion;
    ObjectReader reader(value, path);
    if (const auto* search = reader.find("search"))
        insertion.search = read_bool(*search, path + ".search");
    if (const auto* candidates = reader.find("candidates")) {
        const std::string candidates_path = path + ".candidates";
        element(*candidates, candidates_path);
        for (std::size_t i = 0; i < candidates->size(); ++i) {
            const std::string name = read_string(
                candidates->at(i), at_index(candidates_path, i));
            if (name.empty())
                fail(at_index(candidates_path, i), "must not be empty");
            insertion.candidates.push_back(name);
        }
    }
    if (const auto* cost = reader.find("processor_site_cost")) {
        insertion.processor_site_cost =
            read_number(*cost, path + ".processor_site_cost");
        if (!(insertion.processor_site_cost > 0.0))
            fail(path + ".processor_site_cost", "must be > 0");
    }
    if (const auto* cost = reader.find("bridge_site_cost")) {
        insertion.bridge_site_cost =
            read_number(*cost, path + ".bridge_site_cost");
        if (!(insertion.bridge_site_cost > 0.0))
            fail(path + ".bridge_site_cost", "must be > 0");
    }
    if (const auto* limit = reader.find("exhaustive_limit"))
        insertion.exhaustive_limit = static_cast<std::size_t>(
            read_integer(*limit, path + ".exhaustive_limit", 0));
    reader.finish();
    return insertion;
}

BatchPreset batch_from_json(const util::JsonValue& value,
                            const std::string& path) {
    BatchPreset batch;
    ObjectReader reader(value, path);
    batch.name = read_string(reader.require("name"), path + ".name");
    if (batch.name.empty()) fail(path + ".name", "must not be empty");
    if (const auto* description = reader.find("description"))
        batch.description = read_string(*description, path + ".description");
    const util::JsonValue& members = reader.require("scenarios");
    const std::string members_path = path + ".scenarios";
    element(members, members_path);
    if (members.size() == 0)
        fail(members_path, "must name at least one scenario");
    for (std::size_t i = 0; i < members.size(); ++i) {
        const std::string member =
            read_string(members.at(i), at_index(members_path, i));
        if (member.empty())
            fail(at_index(members_path, i), "must not be empty");
        batch.scenarios.push_back(member);
    }
    reader.finish();
    return batch;
}

util::JsonValue np_to_json(const arch::NetworkProcessorParams& np) {
    util::JsonValue node = util::JsonValue::object();
    node.set("pe_per_cluster", np.pe_per_cluster);
    node.set("bus_rate_scale", np.bus_rate_scale);
    node.set("load_scale", np.load_scale);
    util::JsonValue cluster = util::JsonValue::array();
    for (const std::size_t pe : np.cluster_pe) cluster.push_back(pe);
    node.set("cluster_pe", std::move(cluster));
    node.set("crypto_cluster", np.crypto_cluster);
    return node;
}

util::JsonValue insertion_to_json(const InsertionSpec& insertion) {
    util::JsonValue node = util::JsonValue::object();
    node.set("search", insertion.search);
    util::JsonValue candidates = util::JsonValue::array();
    for (const auto& name : insertion.candidates) candidates.push_back(name);
    node.set("candidates", std::move(candidates));
    node.set("processor_site_cost", insertion.processor_site_cost);
    node.set("bridge_site_cost", insertion.bridge_site_cost);
    node.set("exhaustive_limit", insertion.exhaustive_limit);
    return node;
}

util::JsonValue batch_to_json(const BatchPreset& batch) {
    util::JsonValue node = util::JsonValue::object();
    node.set("name", batch.name);
    node.set("description", batch.description);
    util::JsonValue members = util::JsonValue::array();
    for (const auto& member : batch.scenarios) members.push_back(member);
    node.set("scenarios", std::move(members));
    return node;
}

util::JsonValue sim_to_json(const sim::SimConfig& sim,
                            const std::string& path) {
    // A spec-level sim config is a plain evaluation setup; the engine-owned
    // timeout state is a run artifact, never a scenario input — a spec
    // carrying it cannot round-trip, so refuse to serialize it rather than
    // drop it silently.
    if (sim.timeout_enabled || sim.timeout_threshold != 0.0 ||
        !sim.site_timeout_thresholds.empty())
        fail(path,
             "engine-owned sim fields (timeouts) are not part of the "
             "scenario schema; use evaluate_timeout_policy");
    // JSON numbers are doubles: a seed past 2^53 would be emitted rounded
    // and rejected on the way back in — refuse it here, symmetrically with
    // read_integer's exactness bound, so every exported spec is loadable.
    if (sim.seed > (std::uint64_t{1} << 53))
        fail(path + ".seed",
             "must be <= 2^53 to round-trip exactly through JSON");
    util::JsonValue node = util::JsonValue::object();
    node.set("horizon", sim.horizon);
    node.set("warmup", sim.warmup);
    node.set("seed", sim.seed);
    return node;
}

}  // namespace

const char* to_string(core::SolverChoice solver) {
    switch (solver) {
        case core::SolverChoice::kAuto: return "auto";
        case core::SolverChoice::kLp: return "lp";
        case core::SolverChoice::kValueIteration: return "value-iteration";
        case core::SolverChoice::kPolicyIteration: return "policy-iteration";
    }
    return "?";
}

bool solver_from_string(const std::string& text, core::SolverChoice& out) {
    if (text == "auto") out = core::SolverChoice::kAuto;
    else if (text == "lp") out = core::SolverChoice::kLp;
    else if (text == "value-iteration") out = core::SolverChoice::kValueIteration;
    else if (text == "policy-iteration") out = core::SolverChoice::kPolicyIteration;
    else return false;
    return true;
}

util::JsonValue to_json(const ScenarioSpec& spec) {
    util::JsonValue root = util::JsonValue::object();
    root.set("version", kScenarioSchemaVersion);
    root.set("name", spec.name);
    root.set("description", spec.description);
    root.set("testbench", scenario::to_string(spec.testbench));

    util::JsonValue variants = util::JsonValue::array();
    for (const auto& variant : spec.variants) {
        util::JsonValue node = util::JsonValue::object();
        node.set("label", variant.label);
        node.set("np", np_to_json(variant.np));
        variants.push_back(std::move(node));
    }
    root.set("variants", std::move(variants));

    util::JsonValue budgets = util::JsonValue::array();
    for (const long budget : spec.budgets) budgets.push_back(budget);
    root.set("budgets", std::move(budgets));

    root.set("replications", spec.replications);
    root.set("sizing_iterations", spec.sizing_iterations);
    root.set("sizing_eval_replications", spec.sizing_eval_replications);
    root.set("solver", to_string(spec.solver));
    root.set("modulated_models", spec.use_modulated_models);
    root.set("evaluate_timeout_policy", spec.evaluate_timeout_policy);
    root.set("timeout_threshold_scale", spec.timeout_threshold_scale);
    root.set("calibration_replications", spec.calibration_replications);
    root.set("insertion", insertion_to_json(spec.insertion));
    root.set("sim", sim_to_json(spec.sim, "$.sim"));
    return root;
}

ScenarioSpec spec_from_json(const util::JsonValue& value,
                            const std::string& path) {
    ScenarioSpec spec;
    ObjectReader reader(value, path);

    // Absent means version 1 (every file written before the field
    // existed); 1 and 2 are both understood; anything else is a document
    // this reader does not speak, rejected up front so a future-version
    // file fails on the version line, not on whichever new key happens
    // to come first.
    long long schema_version = kLegacyScenarioSchemaVersion;
    if (const auto* version = reader.find("version")) {
        schema_version = read_integer(*version, path + ".version", 0);
        if (schema_version != kLegacyScenarioSchemaVersion &&
            schema_version != kScenarioSchemaVersion)
            fail(path + ".version",
                 "unsupported schema version " +
                     std::to_string(schema_version) + " (this reader "
                     "understands versions " +
                     std::to_string(kLegacyScenarioSchemaVersion) + " and " +
                     std::to_string(kScenarioSchemaVersion) + ")");
    }
    spec.name = read_string(reader.require("name"), path + ".name");
    if (spec.name.empty()) fail(path + ".name", "must not be empty");
    if (const auto* description = reader.find("description"))
        spec.description = read_string(*description, path + ".description");
    if (const auto* testbench = reader.find("testbench")) {
        const std::string name =
            read_string(*testbench, path + ".testbench");
        if (!testbench_from_string(name, spec.testbench))
            fail(path + ".testbench",
                 "unknown testbench '" + name +
                     "' (expected figure1 or network-processor)");
    }

    if (const auto* variants = reader.find("variants")) {
        const std::string variants_path = path + ".variants";
        element(*variants, variants_path);
        if (variants->size() == 0)
            fail(variants_path, "must name at least one variant");
        spec.variants.clear();
        for (std::size_t i = 0; i < variants->size(); ++i)
            spec.variants.push_back(variant_from_json(
                variants->at(i), at_index(variants_path, i)));
    }

    if (const auto* budgets = reader.find("budgets")) {
        const std::string budgets_path = path + ".budgets";
        element(*budgets, budgets_path);
        if (budgets->size() == 0)
            fail(budgets_path, "must name at least one budget");
        spec.budgets.clear();
        for (std::size_t i = 0; i < budgets->size(); ++i)
            spec.budgets.push_back(static_cast<long>(
                read_integer(budgets->at(i), at_index(budgets_path, i), 1)));
    }

    if (const auto* replications = reader.find("replications"))
        spec.replications = static_cast<std::size_t>(
            read_integer(*replications, path + ".replications", 1));
    if (const auto* iterations = reader.find("sizing_iterations"))
        spec.sizing_iterations = static_cast<int>(
            read_integer(*iterations, path + ".sizing_iterations", 1));
    if (const auto* eval = reader.find("sizing_eval_replications"))
        spec.sizing_eval_replications = static_cast<std::size_t>(read_integer(
            *eval, path + ".sizing_eval_replications", 1));
    if (const auto* solver = reader.find("solver")) {
        const std::string name = read_string(*solver, path + ".solver");
        if (!solver_from_string(name, spec.solver))
            fail(path + ".solver",
                 "unknown solver '" + name +
                     "' (expected auto, lp, value-iteration or "
                     "policy-iteration)");
    }
    // Legacy key: the VI sweep is no longer a scenario setting. Older
    // files still load; either boolean is accepted and changes nothing.
    if (const auto* gs = reader.find("gauss_seidel"))
        static_cast<void>(read_bool(*gs, path + ".gauss_seidel"));
    if (const auto* modulated = reader.find("modulated_models"))
        spec.use_modulated_models =
            read_bool(*modulated, path + ".modulated_models");
    if (const auto* timeout = reader.find("evaluate_timeout_policy"))
        spec.evaluate_timeout_policy =
            read_bool(*timeout, path + ".evaluate_timeout_policy");
    if (const auto* scale = reader.find("timeout_threshold_scale")) {
        spec.timeout_threshold_scale =
            read_number(*scale, path + ".timeout_threshold_scale");
        if (!(spec.timeout_threshold_scale > 0.0))
            fail(path + ".timeout_threshold_scale", "must be > 0");
    }
    if (const auto* calibration = reader.find("calibration_replications"))
        spec.calibration_replications = static_cast<std::size_t>(read_integer(
            *calibration, path + ".calibration_replications", 1));
    // The v2-defining block: required at version 2 (a v2 file must say
    // whether it searches, even if only "search": false), and unknown —
    // rejected by finish() below at $.insertion — in a legacy document,
    // where the reader never claims the key.
    if (schema_version >= kScenarioSchemaVersion) {
        const auto* insertion = reader.find("insertion");
        if (insertion == nullptr)
            fail(path + ".insertion",
                 "required at schema version 2 (declare at least "
                 "{\"search\": false})");
        spec.insertion = insertion_from_json(*insertion, path + ".insertion");
    }
    if (const auto* sim = reader.find("sim"))
        spec.sim = sim_from_json(*sim, path + ".sim");
    reader.finish();

    // Backstop: the structural checks shared with compiled specs. Field
    // reads above already cover them with precise paths; anything that
    // still slips through is reported at the spec's root.
    try {
        spec.validate();
    } catch (const util::ContractViolation& violation) {
        fail(path, violation.what());
    }
    return spec;
}

ScenarioDocument document_from_json(const util::JsonValue& document) {
    ScenarioDocument out;
    const bool catalog =
        document.is_object() &&
        (document.contains("scenarios") || document.contains("batches"));
    if (!catalog) {
        out.scenarios.push_back(spec_from_json(document, "$"));
        return out;
    }
    ObjectReader reader(document, "$");
    const util::JsonValue& list = reader.require("scenarios");
    const util::JsonValue* batches = reader.find("batches");
    reader.finish();
    element(list, "$.scenarios");
    if (list.size() == 0)
        fail("$.scenarios", "must name at least one scenario");
    out.scenarios.reserve(list.size());
    for (std::size_t i = 0; i < list.size(); ++i)
        out.scenarios.push_back(
            spec_from_json(list.at(i), at_index("$.scenarios", i)));
    if (batches != nullptr) {
        element(*batches, "$.batches");
        for (std::size_t i = 0; i < batches->size(); ++i)
            out.batches.push_back(
                batch_from_json(batches->at(i), at_index("$.batches", i)));
    }
    return out;
}

std::vector<ScenarioSpec> specs_from_json(const util::JsonValue& document) {
    return document_from_json(document).scenarios;
}

util::JsonValue catalog_to_json(const std::vector<ScenarioSpec>& specs,
                                const std::vector<BatchPreset>& batches) {
    util::JsonValue list = util::JsonValue::array();
    for (const auto& spec : specs) list.push_back(to_json(spec));
    util::JsonValue root = util::JsonValue::object();
    root.set("scenarios", std::move(list));
    if (!batches.empty()) {
        util::JsonValue batch_list = util::JsonValue::array();
        for (const auto& batch : batches)
            batch_list.push_back(batch_to_json(batch));
        root.set("batches", std::move(batch_list));
    }
    return root;
}

util::JsonValue export_json(const ScenarioRegistry& registry,
                            const std::string& name) {
    // A batch exports as a self-contained catalog: its member specs plus
    // its own batch entry, so loading the file back registers the batch
    // too (the members are all present, satisfying load_json's check).
    if (registry.contains_batch(name))
        return catalog_to_json(registry.expand(name),
                               {registry.get_batch(name)});
    return to_json(registry.get(name));
}

ScenarioDocument load_scenario_document(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) fail(path, "cannot read scenario file");
    std::ostringstream text;
    text << in.rdbuf();
    if (in.bad()) fail(path, "cannot read scenario file");
    util::JsonValue document;
    try {
        document = util::JsonValue::parse(text.str());
    } catch (const util::JsonError& error) {
        fail(path, error.what());
    }
    return document_from_json(document);
}

std::vector<ScenarioSpec> load_scenario_file(const std::string& path) {
    return load_scenario_document(path).scenarios;
}

std::vector<arch::SiteId> resolve_candidates(
    const ScenarioSpec& spec, const arch::TestSystem& system,
    const std::vector<arch::BufferSite>& sites) {
    // Traffic-carrying bridge sites, via the default (all-selected) split:
    // a bridge direction no flow crosses has nothing to place.
    std::vector<arch::SiteId> carrying;
    for (const arch::SiteId s :
         core::active_sites(split::split_architecture(system)))
        if (sites[s].kind == arch::SiteKind::kBridge) carrying.push_back(s);
    carrying.erase(std::unique(carrying.begin(), carrying.end()),
                   carrying.end());
    if (spec.insertion.candidates.empty()) return carrying;
    std::vector<arch::SiteId> resolved;
    for (std::size_t i = 0; i < spec.insertion.candidates.size(); ++i) {
        const std::string& name = spec.insertion.candidates[i];
        const std::string name_path = at_index("$.insertion.candidates", i);
        const auto site = std::find_if(
            sites.begin(), sites.end(),
            [&](const arch::BufferSite& s) { return s.name == name; });
        if (site == sites.end())
            fail(name_path, "unknown buffer site '" + name + "' in " +
                                system.name);
        const auto id = static_cast<arch::SiteId>(site - sites.begin());
        if (!std::binary_search(carrying.begin(), carrying.end(), id))
            fail(name_path, "'" + name +
                                "' is not a traffic-carrying bridge site of " +
                                system.name);
        resolved.push_back(id);
    }
    std::sort(resolved.begin(), resolved.end());
    resolved.erase(std::unique(resolved.begin(), resolved.end()),
                   resolved.end());
    return resolved;
}

void check_runnable(const ScenarioSpec& spec) {
    for (std::size_t v = 0; v < spec.variants.size(); ++v) {
        const arch::TestSystem system = spec.build_system(v);
        // Every allocation policy gives each traffic-carrying site at
        // least one slot, whatever the placement (a deselected bridge
        // site keeps a one-slot passthrough).
        const std::size_t site_count =
            core::active_sites(split::split_architecture(system)).size();
        for (std::size_t i = 0; i < spec.budgets.size(); ++i) {
            if (spec.budgets[i] >= static_cast<long>(site_count)) continue;
            const std::string& label = spec.variants[v].label;
            fail(at_index("$.budgets", i),
                 "budget " + std::to_string(spec.budgets[i]) +
                     " is below the " + std::to_string(site_count) +
                     " traffic-carrying buffer sites of scenario '" +
                     spec.name + "'" +
                     (label.empty() ? "" : " variant '" + label + "'") +
                     " (each needs at least one slot)");
        }
        if (!spec.insertion.candidates.empty())
            (void)resolve_candidates(
                spec, system,
                arch::enumerate_buffer_sites(system.architecture));
    }
}

}  // namespace socbuf::scenario
