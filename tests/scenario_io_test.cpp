// The scenario JSON schema: round-trip fidelity for every built-in
// preset and strict validation with path-naming diagnostics.
#include "scenario/scenario.hpp"
#include "scenario/scenario_io.hpp"
#include "util/contracts.hpp"
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

namespace ss = socbuf::scenario;
using socbuf::util::JsonValue;

namespace {

/// Dump -> parse -> from_json, the full wire trip.
ss::ScenarioSpec round_trip(const ss::ScenarioSpec& spec) {
    return ss::spec_from_json(JsonValue::parse(ss::to_json(spec).dump()));
}

/// Expect spec_from_json(text) to throw, with the path named in the
/// diagnostic.
void expect_io_error(const std::string& text, const std::string& path) {
    try {
        (void)ss::spec_from_json(JsonValue::parse(text));
        FAIL() << "expected ScenarioIoError for " << text;
    } catch (const ss::ScenarioIoError& error) {
        EXPECT_EQ(error.path(), path) << error.what();
        EXPECT_NE(std::string(error.what()).find(path), std::string::npos)
            << "diagnostic must lead with the JSON path: " << error.what();
    }
}

}  // namespace

TEST(ScenarioIo, EveryPresetRoundTripsBitIdentically) {
    // The contract of the issue: from_json(parse(dump(to_json(spec))))
    // == spec for every built-in preset, field for field.
    const ss::ScenarioRegistry registry;
    ASSERT_GT(registry.size(), 0u);
    for (const auto& spec : registry.specs()) {
        const ss::ScenarioSpec again = round_trip(spec);
        EXPECT_TRUE(again == spec) << spec.name;
        // And the dump itself is a fixed point (shortest round-trip
        // doubles), so exported catalog files are stable byte for byte.
        EXPECT_EQ(ss::to_json(again).dump(2), ss::to_json(spec).dump(2))
            << spec.name;
    }
}

TEST(ScenarioIo, RoundTripCoversEveryKnob) {
    // A spec with every field off its default — catches a to_json that
    // forgets a field (the round trip would silently reseat the default).
    ss::ScenarioSpec spec;
    spec.name = "everything";
    spec.description = "all knobs off-default";
    spec.testbench = ss::Testbench::kNetworkProcessor;
    spec.variants = {{"a", {3, 1.5, 0.75, {}, true}},
                     {"b", {4, 1.0, 1.0, {2, 3, 4, 5}, false}}};
    spec.budgets = {17, 40};
    spec.replications = 3;
    spec.sizing_iterations = 5;
    spec.sizing_eval_replications = 2;
    spec.solver = socbuf::core::SolverChoice::kValueIteration;
    spec.use_modulated_models = true;
    spec.evaluate_timeout_policy = true;
    spec.timeout_threshold_scale = 2.5;
    spec.calibration_replications = 4;
    spec.insertion = {true, {"bf:b>f", "bg:b>g"}, 2.0, 3.0, 6};
    spec.sim.horizon = 900.0;
    spec.sim.warmup = 90.0;
    spec.sim.seed = 123456789;
    spec.sim.arbiter = socbuf::sim::ArbiterKind::kLongestQueue;
    spec.validate();
    EXPECT_TRUE(round_trip(spec) == spec);
}

TEST(ScenarioIo, ArbitraryFiniteDoublesRoundTripBitIdentically) {
    // Preset values are "nice" decimals; the schema contract must hold
    // for *any* finite double a user computes (0.1 + 0.2 has no short
    // decimal form; 1/3 and a subnormal-scale horizon ratio exercise the
    // shortest-round-trip emitter hardest). Field-for-field equality
    // after dump -> parse -> from_json means every number came back in
    // the exact same bits.
    ss::ScenarioSpec spec;
    spec.name = "arbitrary-doubles";
    spec.variants.clear();
    {
        ss::ScenarioVariant v;
        v.label = "awkward";
        v.np.load_scale = 0.1 + 0.2;       // 0.30000000000000004
        v.np.bus_rate_scale = 1.0 / 3.0;   // repeating binary fraction
        spec.variants.push_back(v);
    }
    spec.timeout_threshold_scale = 4.0 * (0.1 + 0.2);
    spec.evaluate_timeout_policy = true;
    spec.sim.horizon = 4000.0 * (1.0 + 1e-15);  // differs in the last ulps
    spec.sim.warmup = 4000.0 / 7.0;
    const ss::ScenarioSpec again = round_trip(spec);
    EXPECT_TRUE(again == spec);
    EXPECT_EQ(again.variants[0].np.load_scale, 0.1 + 0.2);
    EXPECT_EQ(again.sim.horizon, spec.sim.horizon);
    // The emitted document is itself a fixed point of dump -> parse.
    EXPECT_EQ(ss::to_json(again).dump(2), ss::to_json(spec).dump(2));
}

TEST(ScenarioIo, AbsentKeysKeepDefaults) {
    const auto spec =
        ss::spec_from_json(JsonValue::parse("{\"name\": \"minimal\"}"));
    const ss::ScenarioSpec defaults = [] {
        ss::ScenarioSpec s;
        s.name = "minimal";
        return s;
    }();
    EXPECT_TRUE(spec == defaults);
}

TEST(ScenarioIo, LegacyGaussSeidelKeyLoadsAndIsNeverWritten) {
    // The VI sweep is no longer a scenario setting: older files carrying
    // the key still load, with either value and no effect, and to_json
    // no longer writes it. A non-boolean is still a schema error.
    const auto plain =
        ss::spec_from_json(JsonValue::parse("{\"name\": \"legacy\"}"));
    for (const char* value : {"true", "false"}) {
        const auto spec = ss::spec_from_json(JsonValue::parse(
            std::string("{\"name\": \"legacy\", \"gauss_seidel\": ") +
            value + "}"));
        EXPECT_TRUE(spec == plain) << "gauss_seidel " << value;
    }
    EXPECT_FALSE(ss::to_json(plain).contains("gauss_seidel"));
    expect_io_error("{\"name\": \"x\", \"gauss_seidel\": 1}",
                    "$.gauss_seidel");
}

TEST(ScenarioIo, SchemaVersionIsStampedAndEnforced) {
    // Every emitted document leads with the schema version...
    const ss::ScenarioSpec spec = [] {
        ss::ScenarioSpec s;
        s.name = "versioned";
        return s;
    }();
    const JsonValue doc = ss::to_json(spec);
    ASSERT_TRUE(doc.contains("version"));
    EXPECT_EQ(doc.at("version").as_number(), ss::kScenarioSchemaVersion);
    // ...an explicit legacy version parses, absent means legacy
    // (AbsentKeysKeepDefaults), and versions this reader does not speak
    // are rejected at $.version before any other key is validated.
    EXPECT_TRUE(ss::spec_from_json(JsonValue::parse(
                    "{\"version\": 1, \"name\": \"v\"}")) ==
                ss::spec_from_json(JsonValue::parse("{\"name\": \"v\"}")));
    expect_io_error("{\"version\": 0, \"name\": \"v\"}", "$.version");
    expect_io_error("{\"version\": 3, \"name\": \"v\"}", "$.version");
    expect_io_error("{\"version\": \"1\", \"name\": \"v\"}", "$.version");
    // Rejection happens up front: a future-version document fails on the
    // version line even when later keys would also be unknown.
    expect_io_error("{\"version\": 3, \"name\": \"v\", \"zzz\": 1}",
                    "$.version");
}

TEST(ScenarioIo, VersionTwoRequiresTheInsertionBlock) {
    // The v2-defining key: a version-2 document must declare $.insertion
    // (even just {"search": false}), and a legacy document must not —
    // there the key is unknown and strict validation rejects it.
    expect_io_error("{\"version\": 2, \"name\": \"v\"}", "$.insertion");
    expect_io_error(
        "{\"version\": 1, \"name\": \"v\", "
        "\"insertion\": {\"search\": false}}",
        "$.insertion");
    const auto v2 = ss::spec_from_json(JsonValue::parse(
        "{\"version\": 2, \"name\": \"v\", "
        "\"insertion\": {\"search\": false}}"));
    const auto legacy =
        ss::spec_from_json(JsonValue::parse("{\"name\": \"v\"}"));
    EXPECT_TRUE(v2 == legacy);  // search off is the legacy behavior
    // The insertion block itself is strictly validated, path and all.
    expect_io_error(
        "{\"version\": 2, \"name\": \"v\", "
        "\"insertion\": {\"search\": 1}}",
        "$.insertion.search");
    expect_io_error(
        "{\"version\": 2, \"name\": \"v\", "
        "\"insertion\": {\"search\": true, \"candidates\": [\"\"]}}",
        "$.insertion.candidates[0]");
    expect_io_error(
        "{\"version\": 2, \"name\": \"v\", "
        "\"insertion\": {\"search\": true, \"bridge_site_cost\": 0}}",
        "$.insertion.bridge_site_cost");
    expect_io_error(
        "{\"version\": 2, \"name\": \"v\", "
        "\"insertion\": {\"search\": true, \"exhaustive_limit\": -1}}",
        "$.insertion.exhaustive_limit");
    expect_io_error(
        "{\"version\": 2, \"name\": \"v\", "
        "\"insertion\": {\"search\": true, \"zzz\": 1}}",
        "$.insertion.zzz");
}

TEST(ScenarioIo, DiagnosticsNameTheJsonPath) {
    expect_io_error("{\"name\": \"x\", \"budgetz\": [3]}", "$.budgetz");
    expect_io_error("{\"name\": \"x\", \"budgets\": \"320\"}", "$.budgets");
    expect_io_error("{\"name\": \"x\", \"budgets\": []}", "$.budgets");
    expect_io_error("{\"name\": \"x\", \"budgets\": [0]}", "$.budgets[0]");
    expect_io_error("{\"name\": \"x\", \"budgets\": [32.5]}", "$.budgets[0]");
    expect_io_error("{\"name\": \"\"}", "$.name");
    expect_io_error("{\"budgets\": [3]}", "$");  // missing name
    expect_io_error("{\"name\": \"x\", \"testbench\": \"tb\"}",
                    "$.testbench");
    expect_io_error("{\"name\": \"x\", \"solver\": \"magic\"}", "$.solver");
    expect_io_error("{\"name\": \"x\", \"replications\": 0}",
                    "$.replications");
    expect_io_error(
        "{\"name\": \"x\", \"variants\": [{\"np\": {\"load_scale\": 0}}]}",
        "$.variants[0].np.load_scale");
    expect_io_error(
        "{\"name\": \"x\", \"variants\": [{}, {\"np\": {\"pe\": 1}}]}",
        "$.variants[1].np.pe");
    expect_io_error(
        "{\"name\": \"x\", \"variants\": "
        "[{\"np\": {\"cluster_pe\": [2, 2]}}]}",
        "$.variants[0].np.cluster_pe");
    expect_io_error("{\"name\": \"x\", \"sim\": {\"horizon\": -1}}",
                    "$.sim.horizon");
    expect_io_error(
        "{\"name\": \"x\", \"sim\": {\"horizon\": 10, \"warmup\": 20}}",
        "$.sim.warmup");
    // With no explicit warmup the conflict comes from the horizon
    // undercutting the *default* warmup — blame the key the document
    // actually wrote.
    expect_io_error("{\"name\": \"x\", \"sim\": {\"horizon\": 100}}",
                    "$.sim.horizon");
    expect_io_error("{\"name\": \"x\", \"sim\": {\"arbiter\": \"coin\"}}",
                    "$.sim.arbiter");
    expect_io_error("{\"name\": \"x\", \"sim\": {\"seed\": 1.5}}",
                    "$.sim.seed");
}

TEST(ScenarioIo, CatalogDocumentsParseAndReportPerScenarioPaths) {
    const auto specs = ss::specs_from_json(JsonValue::parse(
        "{\"scenarios\": [{\"name\": \"a\"}, {\"name\": \"b\"}]}"));
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[0].name, "a");
    EXPECT_EQ(specs[1].name, "b");
    try {
        (void)ss::specs_from_json(JsonValue::parse(
            "{\"scenarios\": [{\"name\": \"a\"}, {\"name\": \"b\", "
            "\"budgets\": []}]}"));
        FAIL() << "expected ScenarioIoError";
    } catch (const ss::ScenarioIoError& error) {
        EXPECT_EQ(error.path(), "$.scenarios[1].budgets");
    }
    // A catalog document rejects keys beside "scenarios"/"batches".
    try {
        (void)ss::specs_from_json(JsonValue::parse(
            "{\"scenarios\": [{\"name\": \"a\"}], \"extra\": 1}"));
        FAIL() << "expected ScenarioIoError";
    } catch (const ss::ScenarioIoError& error) {
        EXPECT_EQ(error.path(), "$.extra");
    }
}

TEST(ScenarioIo, CatalogBatchesRoundTripAndResolve) {
    // User-defined $.batches[]: parse, register, expand, and re-emit.
    const auto document = ss::document_from_json(JsonValue::parse(
        "{\"scenarios\": [{\"name\": \"a\"}, {\"name\": \"b\"}],"
        " \"batches\": [{\"name\": \"both\","
        " \"description\": \"a then b\","
        " \"scenarios\": [\"a\", \"b\"]}]}"));
    ASSERT_EQ(document.scenarios.size(), 2u);
    ASSERT_EQ(document.batches.size(), 1u);
    EXPECT_EQ(document.batches[0].name, "both");
    EXPECT_EQ(document.batches[0].description, "a then b");

    ss::ScenarioRegistry registry;
    registry.load_text(
        "{\"scenarios\": [{\"name\": \"a\"}, {\"name\": \"b\"}],"
        " \"batches\": [{\"name\": \"both\", \"scenarios\": [\"a\", \"b\"]},"
        // A loaded batch may also reference scenarios already registered.
        " {\"name\": \"mixed\", \"scenarios\": [\"a\", \"figure1\"]}]}");
    ASSERT_TRUE(registry.contains_batch("both"));
    ASSERT_TRUE(registry.contains_batch("mixed"));
    const auto expanded = registry.expand("mixed");
    ASSERT_EQ(expanded.size(), 2u);
    EXPECT_EQ(expanded[0].name, "a");
    EXPECT_EQ(expanded[1].name, "figure1");

    // catalog_to_json re-emits batches alongside scenarios; the document
    // round-trips through parse -> document_from_json.
    const JsonValue catalog = ss::catalog_to_json(
        document.scenarios, {registry.get_batch("both")});
    const auto again =
        ss::document_from_json(JsonValue::parse(catalog.dump(2)));
    ASSERT_EQ(again.batches.size(), 1u);
    EXPECT_EQ(again.batches[0].scenarios, document.batches[0].scenarios);

    // Malformed batch entries name their path.
    try {
        (void)ss::document_from_json(JsonValue::parse(
            "{\"scenarios\": [{\"name\": \"a\"}],"
            " \"batches\": [{\"name\": \"x\", \"scenarios\": []}]}"));
        FAIL() << "expected ScenarioIoError";
    } catch (const ss::ScenarioIoError& error) {
        EXPECT_EQ(error.path(), "$.batches[0].scenarios");
    }
}

TEST(ScenarioIo, BatchWithUnknownMemberLeavesRegistryUntouched) {
    // Atomicity: a batch referencing a scenario that is neither in the
    // document nor already registered must reject the whole load —
    // scenarios listed before it are NOT half-adopted.
    ss::ScenarioRegistry registry;
    const auto specs_before = registry.specs();
    const auto batches_before = registry.batches().size();
    EXPECT_THROW(
        (void)registry.load_text(
            "{\"scenarios\": [{\"name\": \"fresh\"}],"
            " \"batches\": [{\"name\": \"broken\","
            " \"scenarios\": [\"fresh\", \"no-such-scenario\"]}]}"),
        ss::ScenarioIoError);
    EXPECT_TRUE(registry.specs() == specs_before);
    EXPECT_FALSE(registry.contains("fresh"));
    EXPECT_EQ(registry.batches().size(), batches_before);
}

TEST(ScenarioIo, EngineOwnedSimFieldsAreRejectedOnBothSides) {
    ss::ScenarioSpec spec;
    spec.name = "x";
    spec.sim.timeout_enabled = true;
    EXPECT_THROW((void)ss::to_json(spec), ss::ScenarioIoError);
    // Seeds past 2^53 cannot survive the double trip — to_json must
    // refuse them up front (an exportable spec is always loadable).
    ss::ScenarioSpec big_seed;
    big_seed.name = "x";
    big_seed.sim.seed = (std::uint64_t{1} << 53) + 2;
    EXPECT_THROW((void)ss::to_json(big_seed), ss::ScenarioIoError);
    big_seed.sim.seed = std::uint64_t{1} << 53;
    EXPECT_NO_THROW((void)ss::to_json(big_seed));
    try {
        (void)ss::spec_from_json(JsonValue::parse(
            "{\"name\": \"x\", \"sim\": {\"timeout_enabled\": true}}"));
        FAIL() << "expected ScenarioIoError";
    } catch (const ss::ScenarioIoError& error) {
        EXPECT_EQ(error.path(), "$.sim.timeout_enabled");
    }
}

TEST(ScenarioIo, RegistryLoadsTextAndFiles) {
    ss::ScenarioRegistry registry;
    const std::size_t presets = registry.size();
    const std::size_t added = registry.load_text(
        "{\"scenarios\": [{\"name\": \"from-text\", \"budgets\": [9]},"
        " {\"name\": \"figure1\", \"budgets\": [7]}]}");
    EXPECT_EQ(added, 2u);
    EXPECT_EQ(registry.size(), presets + 1);  // figure1 replaced in place
    EXPECT_EQ(registry.get("from-text").budgets, std::vector<long>{9});
    EXPECT_EQ(registry.get("figure1").budgets, std::vector<long>{7});

    // A malformed document leaves the registry unchanged.
    ss::ScenarioRegistry untouched;
    const auto specs_before = untouched.specs();
    EXPECT_THROW(
        (void)untouched.load_text(
            "{\"scenarios\": [{\"name\": \"ok\"}, {\"name\": \"bad\", "
            "\"budgets\": []}]}"),
        ss::ScenarioIoError);
    EXPECT_TRUE(untouched.specs() == specs_before);

    // load_file round: write, load, compare.
    const std::string path = "scenario_io_test_tmp.json";
    {
        std::ofstream out(path);
        out << ss::to_json(registry.get("from-text")).dump(2);
    }
    ss::ScenarioRegistry from_file;
    EXPECT_EQ(from_file.load_file(path), 1u);
    EXPECT_TRUE(from_file.get("from-text") == registry.get("from-text"));
    std::remove(path.c_str());

    EXPECT_THROW((void)from_file.load_file("definitely_not_here.json"),
                 ss::ScenarioIoError);
}

TEST(ScenarioIo, NamesRoundTripThroughEnumHelpers) {
    using socbuf::core::SolverChoice;
    for (const auto solver :
         {SolverChoice::kAuto, SolverChoice::kLp,
          SolverChoice::kValueIteration, SolverChoice::kPolicyIteration}) {
        SolverChoice parsed{};
        ASSERT_TRUE(ss::solver_from_string(ss::to_string(solver), parsed));
        EXPECT_EQ(parsed, solver);
    }
    using socbuf::sim::ArbiterKind;
    for (const auto arbiter :
         {ArbiterKind::kFixedPriority, ArbiterKind::kRoundRobin,
          ArbiterKind::kLongestQueue, ArbiterKind::kWeightedRandom}) {
        ArbiterKind parsed{};
        ASSERT_TRUE(ss::arbiter_from_string(ss::to_string(arbiter), parsed));
        EXPECT_EQ(parsed, arbiter);
    }
    socbuf::core::SolverChoice solver{};
    EXPECT_FALSE(ss::solver_from_string("magic", solver));
    socbuf::sim::ArbiterKind arbiter{};
    EXPECT_FALSE(ss::arbiter_from_string("coin", arbiter));
    ss::Testbench testbench{};
    EXPECT_TRUE(ss::testbench_from_string("figure1", testbench));
    EXPECT_FALSE(ss::testbench_from_string("figure2", testbench));
}
