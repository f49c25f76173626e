// Scenarios as data, end to end: define a spec as a plain struct,
// serialize it to JSON, load it back through a registry, and run both
// through one socbuf::Session — proving the file trip changes nothing.
//
//   $ ./scenario_catalog
#include "scenario/scenario_io.hpp"
#include "session/session.hpp"

#include <cstdio>

int main() {
    using namespace socbuf;

    // 1. Define a small load sweep field by field; validate() checks it
    //    here, so a malformed spec fails now, not mid-batch.
    arch::NetworkProcessorParams light;
    light.load_scale = 0.8;
    arch::NetworkProcessorParams heavy;
    heavy.load_scale = 1.15;
    scenario::ScenarioSpec sweep;
    sweep.name = "example-load-sweep";
    sweep.description = "80%/115% offered load on the network processor";
    sweep.testbench = scenario::Testbench::kNetworkProcessor;
    sweep.variants = {{"load=0.80", light}, {"load=1.15", heavy}};
    sweep.budgets = {160};
    sweep.replications = 2;
    sweep.sizing_iterations = 3;
    sweep.sim.horizon = 600.0;
    sweep.sim.warmup = 60.0;
    sweep.sim.seed = 7;
    sweep.validate();

    // 2. The spec is data: dump it, parse it back, and verify the round
    //    trip is exact (the scenario_io contract).
    const util::JsonValue json = scenario::to_json(sweep);
    const scenario::ScenarioSpec reloaded =
        scenario::spec_from_json(util::JsonValue::parse(json.dump()));
    std::printf("round trip exact: %s\n",
                reloaded == sweep ? "yes" : "NO");

    // 3. One Session runs everything: the ad-hoc spec, the reloaded
    //    twin, and a built-in preset by name.
    Session session({0});  // 0 = hardware concurrency
    const auto direct = session.run(sweep);
    const auto via_json = session.run(reloaded);
    std::printf("file trip changes nothing: %s\n",
                direct.to_json() == via_json.to_json() ? "yes" : "NO");

    std::printf("\n%s", direct.summary_table().to_string().c_str());
    std::printf("workers: %zu · cache: %zu hits / %zu misses\n",
                direct.workers, direct.cache.hits, direct.cache.misses);

    // 4. The whole built-in catalog is exportable the same way
    //    (socbuf_cli export --all writes scenarios/*.json from this).
    const auto catalog = scenario::catalog_to_json(session.registry().specs());
    std::printf("\nexportable catalog: %zu presets, %zu bytes of JSON\n",
                catalog.at("scenarios").size(), catalog.dump(2).size());
    return 0;
}
