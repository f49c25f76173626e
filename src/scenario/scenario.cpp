#include "scenario/scenario.hpp"

#include "scenario/scenario_io.hpp"
#include "util/contracts.hpp"
#include "util/strings.hpp"

#include <utility>

namespace socbuf::scenario {

const char* to_string(Testbench testbench) {
    switch (testbench) {
        case Testbench::kFigure1: return "figure1";
        case Testbench::kNetworkProcessor: return "network-processor";
    }
    return "?";
}

bool testbench_from_string(const std::string& text, Testbench& out) {
    if (text == "figure1") out = Testbench::kFigure1;
    else if (text == "network-processor") out = Testbench::kNetworkProcessor;
    else return false;
    return true;
}

bool operator==(const ScenarioVariant& a, const ScenarioVariant& b) {
    return a.label == b.label && a.np == b.np;
}

bool operator==(const InsertionSpec& a, const InsertionSpec& b) {
    return a.search == b.search && a.candidates == b.candidates &&
           a.processor_site_cost == b.processor_site_cost &&
           a.bridge_site_cost == b.bridge_site_cost &&
           a.exhaustive_limit == b.exhaustive_limit;
}

bool operator==(const ScenarioSpec& a, const ScenarioSpec& b) {
    return a.name == b.name && a.description == b.description &&
           a.testbench == b.testbench && a.variants == b.variants &&
           a.budgets == b.budgets && a.replications == b.replications &&
           a.sizing_iterations == b.sizing_iterations &&
           a.sizing_eval_replications == b.sizing_eval_replications &&
           a.solver == b.solver &&
           a.use_modulated_models == b.use_modulated_models &&
           a.evaluate_timeout_policy == b.evaluate_timeout_policy &&
           a.timeout_threshold_scale == b.timeout_threshold_scale &&
           a.calibration_replications == b.calibration_replications &&
           a.insertion == b.insertion && a.sim == b.sim;
}

arch::TestSystem ScenarioSpec::build_system(std::size_t variant) const {
    SOCBUF_REQUIRE_MSG(variant < variants.size(), "variant out of range");
    arch::TestSystem system =
        testbench == Testbench::kFigure1
            ? arch::figure1_system()
            : arch::network_processor_system(variants[variant].np);
    if (!variants[variant].label.empty())
        system.name += " [" + variants[variant].label + "]";
    return system;
}

core::SizingOptions ScenarioSpec::sizing_options(long budget) const {
    core::SizingOptions options;
    options.total_budget = budget;
    options.iterations = sizing_iterations;
    options.eval_replications = sizing_eval_replications;
    options.solver = solver;
    options.use_modulated_models = use_modulated_models;
    options.sim = sim;
    return options;
}

void ScenarioSpec::validate() const {
    SOCBUF_REQUIRE_MSG(!name.empty(), "a scenario needs a name");
    SOCBUF_REQUIRE_MSG(!variants.empty(), "a scenario needs >= 1 variant");
    SOCBUF_REQUIRE_MSG(!budgets.empty(), "a scenario needs >= 1 budget");
    for (const long b : budgets)
        SOCBUF_REQUIRE_MSG(b >= 1, "budgets must be >= 1");
    SOCBUF_REQUIRE_MSG(replications >= 1, "need >= 1 replication");
    SOCBUF_REQUIRE_MSG(sizing_eval_replications >= 1,
                       "need >= 1 sizing evaluation replication");
    SOCBUF_REQUIRE_MSG(sizing_iterations >= 1, "need >= 1 sizing iteration");
    SOCBUF_REQUIRE_MSG(timeout_threshold_scale > 0.0,
                       "timeout threshold scale must be positive");
    SOCBUF_REQUIRE_MSG(calibration_replications >= 1,
                       "need >= 1 calibration replication");
    SOCBUF_REQUIRE_MSG(insertion.processor_site_cost > 0.0 &&
                           insertion.bridge_site_cost > 0.0,
                       "insertion site costs must be positive");
    for (const auto& c : insertion.candidates)
        SOCBUF_REQUIRE_MSG(!c.empty(),
                           "insertion candidate names must be non-empty");
    for (const auto& v : variants) {
        SOCBUF_REQUIRE_MSG(v.np.pe_per_cluster >= 1,
                           "pe_per_cluster must be >= 1");
        SOCBUF_REQUIRE_MSG(v.np.bus_rate_scale > 0.0 && v.np.load_scale > 0.0,
                           "testbench scales must be positive");
        SOCBUF_REQUIRE_MSG(
            v.np.cluster_pe.empty() || v.np.cluster_pe.size() == 4,
            "cluster_pe must be empty or name all four clusters");
        for (const std::size_t pe : v.np.cluster_pe)
            SOCBUF_REQUIRE_MSG(pe >= 2, "cluster_pe entries must be >= 2");
    }
}

namespace {

/// Shared evaluation defaults of the paper's experiments: the Figure 3 /
/// Table 1 horizon and the 2005 base seed.
void paper_sim_defaults(ScenarioSpec& spec) {
    spec.sim.horizon = 4000.0;
    spec.sim.warmup = 400.0;
    spec.sim.seed = 2005;
}

ScenarioSpec figure1_preset() {
    ScenarioSpec spec;
    spec.name = "figure1";
    spec.description =
        "The paper's Figure 1 sample architecture: four buses, two "
        "bridges, sized at two modest budgets.";
    spec.testbench = Testbench::kFigure1;
    spec.budgets = {24, 48};
    spec.replications = 5;
    paper_sim_defaults(spec);
    return spec;
}

ScenarioSpec np_baseline_preset() {
    ScenarioSpec spec;
    spec.name = "np-baseline";
    spec.description =
        "Network-processor testbench at nominal load — Table 1's budget "
        "sweep (160/320/640) with the paper's 10 replications.";
    spec.budgets = {160, 320, 640};
    spec.replications = 10;
    paper_sim_defaults(spec);
    return spec;
}

ScenarioSpec figure3_preset() {
    ScenarioSpec spec;
    spec.name = "figure3";
    spec.description =
        "Figure 3: per-processor loss on the network-processor testbench "
        "at budget 320 under constant sizing, CTMDP resizing and the "
        "timeout policy, over the paper's 10 replications.";
    spec.budgets = {320};
    spec.replications = 10;
    // The paper thresholds at the mean buffer wait itself, but with
    // roughly exponential waits that drops over a third of all traffic
    // (P(W > E[W]) ~ 1/e); 4x keeps the policy a competitive baseline.
    // bench_ablation_policies sweeps the scale.
    spec.evaluate_timeout_policy = true;
    spec.timeout_threshold_scale = 4.0;
    paper_sim_defaults(spec);
    return spec;
}

ScenarioSpec np_load_sweep_preset() {
    ScenarioSpec spec;
    spec.name = "np-load-sweep";
    spec.description =
        "Offered-load sweep on the network processor: every flow rate "
        "scaled to 80% / 100% / 125% of nominal at budget 320.";
    spec.variants.clear();
    for (const double scale : {0.8, 1.0, 1.25}) {
        ScenarioVariant v;
        v.label = "load=" + util::format_fixed(scale, 2);
        v.np.load_scale = scale;
        spec.variants.push_back(v);
    }
    spec.budgets = {320};
    spec.replications = 5;
    paper_sim_defaults(spec);
    return spec;
}

ScenarioSpec np_bus_speed_sweep_preset() {
    ScenarioSpec spec;
    spec.name = "np-bus-speed-sweep";
    spec.description =
        "Bus-speed sweep on the network processor: every bus service rate "
        "scaled to 80% / 100% / 125% of nominal at budget 320.";
    spec.variants.clear();
    for (const double scale : {0.8, 1.0, 1.25}) {
        ScenarioVariant v;
        v.label = "bus=" + util::format_fixed(scale, 2);
        v.np.bus_rate_scale = scale;
        spec.variants.push_back(v);
    }
    spec.budgets = {320};
    spec.replications = 5;
    paper_sim_defaults(spec);
    return spec;
}

ScenarioSpec np_cluster_scaling_preset() {
    ScenarioSpec spec;
    spec.name = "np-cluster-scaling";
    spec.description =
        "Architecture-size sweep: 2/4/6 processing elements per cluster "
        "(9/17/25 processors) under the same 320-unit budget.";
    spec.variants.clear();
    for (const std::size_t pe : {std::size_t{2}, std::size_t{4},
                                 std::size_t{6}}) {
        ScenarioVariant v;
        v.label = "pe=" + std::to_string(pe);
        v.np.pe_per_cluster = pe;
        spec.variants.push_back(v);
    }
    spec.budgets = {320};
    spec.replications = 5;
    paper_sim_defaults(spec);
    return spec;
}

ScenarioSpec np_cluster_asymmetry_preset() {
    ScenarioSpec spec;
    spec.name = "np-cluster-asymmetry";
    spec.description =
        "Topology sweep on the network processor: three vs four cluster "
        "bridges and asymmetric PE clusters under one 320-unit budget.";
    spec.variants.clear();
    {
        ScenarioVariant v;  // the nominal star, for reference
        v.label = "bridges=4";
        spec.variants.push_back(v);
    }
    {
        ScenarioVariant v;  // drop the crypto cluster: 3 bridges
        v.label = "bridges=3";
        v.np.crypto_cluster = false;
        spec.variants.push_back(v);
    }
    {
        ScenarioVariant v;  // front-loaded pipeline
        v.label = "asym=ingress-heavy";
        v.np.cluster_pe = {6, 4, 2, 4};
        spec.variants.push_back(v);
    }
    {
        ScenarioVariant v;  // back-loaded pipeline (deep scheduler pool)
        v.label = "asym=egress-heavy";
        v.np.cluster_pe = {2, 4, 4, 6};
        spec.variants.push_back(v);
    }
    spec.budgets = {320};
    spec.replications = 5;
    paper_sim_defaults(spec);
    return spec;
}

ScenarioSpec np_bursty_heavy_preset() {
    ScenarioSpec spec;
    spec.name = "np-bursty-heavy";
    spec.description =
        "Overloaded bursty regime: 115% load with burst-aware (MMPP) "
        "subsystem models, at tight and nominal budgets.";
    spec.variants[0].label = "load=1.15";
    spec.variants[0].np.load_scale = 1.15;
    spec.budgets = {160, 320};
    spec.replications = 5;
    spec.use_modulated_models = true;
    paper_sim_defaults(spec);
    return spec;
}

ScenarioSpec insertion_figure1_preset() {
    ScenarioSpec spec;
    spec.name = "insertion-figure1";
    spec.description =
        "Placement search on the Figure 1 sample: all 16 plans over the "
        "four directional bridge buffers, exhaustively, at budget 24.";
    spec.testbench = Testbench::kFigure1;
    spec.budgets = {24};
    spec.replications = 3;
    spec.insertion.search = true;  // 4 candidates <= exhaustive_limit
    paper_sim_defaults(spec);
    return spec;
}

ScenarioSpec insertion_np_search_preset() {
    ScenarioSpec spec;
    spec.name = "insertion-np-search";
    spec.description =
        "Pruned placement search on a compact network processor: eight "
        "traffic-carrying bridge sites (> exhaustive_limit), dominance "
        "pruning against the 256-plan exhaustive space at budget 160.";
    spec.variants[0].np.pe_per_cluster = 2;
    spec.budgets = {160};
    spec.replications = 3;
    spec.sizing_iterations = 5;
    spec.insertion.search = true;  // 8 candidates > exhaustive_limit = 4
    paper_sim_defaults(spec);
    return spec;
}

}  // namespace

ScenarioRegistry::ScenarioRegistry() {
    add(figure1_preset());
    add(np_baseline_preset());
    add(figure3_preset());
    add(np_load_sweep_preset());
    add(np_bus_speed_sweep_preset());
    add(np_cluster_scaling_preset());
    add(np_cluster_asymmetry_preset());
    add(np_bursty_heavy_preset());
    add(insertion_figure1_preset());
    add(insertion_np_search_preset());
    // The mixed-testbench default batch: the Figure 1 sample and Table 1's
    // budget sweep as one pipelined batch (two different testbenches on
    // one shared executor and solve cache).
    add_batch({"paper-suite",
               "The paper's two testbenches in one batch: figure1 plus "
               "np-baseline (Table 1's budget sweep).",
               {"figure1", "np-baseline"}});
    add_batch({"insertion-search",
               "Both placement-search presets — the exhaustive Figure 1 "
               "sweep and the pruned network-processor search — as one "
               "batch.",
               {"insertion-figure1", "insertion-np-search"}});
}

void ScenarioRegistry::add(ScenarioSpec spec) {
    spec.validate();
    for (auto& existing : specs_) {
        if (existing.name == spec.name) {
            existing = std::move(spec);
            return;
        }
    }
    specs_.push_back(std::move(spec));
}

bool ScenarioRegistry::contains(const std::string& name) const {
    for (const auto& spec : specs_)
        if (spec.name == name) return true;
    return false;
}

const ScenarioSpec& ScenarioRegistry::get(const std::string& name) const {
    for (const auto& spec : specs_)
        if (spec.name == name) return spec;
    util::raise_contract_violation("registry.contains(name)", __FILE__,
                                   __LINE__, "unknown scenario: " + name);
}

std::size_t ScenarioRegistry::load_json(const util::JsonValue& document) {
    return adopt_document(document_from_json(document));
}

std::size_t ScenarioRegistry::adopt_document(ScenarioDocument doc) {
    // Everything is already deserialized and validated; what remains is
    // the cross-reference check, done before the first add() so a bad
    // batch never half-applies the document (the load stays atomic).
    // Each batch member must resolve against the registry's scenarios or
    // the document's own.
    for (const auto& batch : doc.batches) {
        for (const auto& member : batch.scenarios) {
            bool known = contains(member);
            for (const auto& spec : doc.scenarios)
                known = known || spec.name == member;
            if (!known)
                throw ScenarioIoError(
                    "$.batches",
                    "batch '" + batch.name +
                        "' references unknown scenario: " + member);
        }
    }
    const std::size_t added = doc.scenarios.size();
    for (auto& spec : doc.scenarios) add(std::move(spec));
    for (auto& batch : doc.batches) add_batch(std::move(batch));
    return added;
}

std::size_t ScenarioRegistry::load_text(const std::string& text) {
    util::JsonValue document;
    try {
        document = util::JsonValue::parse(text);
    } catch (const util::JsonError& error) {
        throw ScenarioIoError("$", error.what());
    }
    return load_json(document);
}

std::size_t ScenarioRegistry::load_file(const std::string& path) {
    return adopt_document(load_scenario_document(path));
}

void ScenarioRegistry::add_batch(BatchPreset batch) {
    SOCBUF_REQUIRE_MSG(!batch.name.empty(), "a batch needs a name");
    SOCBUF_REQUIRE_MSG(!batch.scenarios.empty(),
                       "a batch needs >= 1 scenario");
    for (const auto& member : batch.scenarios)
        SOCBUF_REQUIRE_MSG(contains(member),
                           "batch '" + batch.name +
                               "' references unknown scenario: " + member);
    for (auto& existing : batches_) {
        if (existing.name == batch.name) {
            existing = std::move(batch);
            return;
        }
    }
    batches_.push_back(std::move(batch));
}

bool ScenarioRegistry::contains_batch(const std::string& name) const {
    for (const auto& batch : batches_)
        if (batch.name == name) return true;
    return false;
}

const BatchPreset& ScenarioRegistry::get_batch(const std::string& name) const {
    for (const auto& batch : batches_)
        if (batch.name == name) return batch;
    util::raise_contract_violation("registry.contains_batch(name)", __FILE__,
                                   __LINE__, "unknown batch: " + name);
}

std::vector<ScenarioSpec> ScenarioRegistry::expand(
    const std::string& name) const {
    if (contains_batch(name)) {
        std::vector<ScenarioSpec> specs;
        for (const auto& member : get_batch(name).scenarios)
            specs.push_back(get(member));
        return specs;
    }
    return {get(name)};
}

}  // namespace socbuf::scenario
