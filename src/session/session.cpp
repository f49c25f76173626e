#include "session/session.hpp"

#include "scenario/scenario_io.hpp"

namespace socbuf {

Session::Session(SessionOptions options)
    : options_(options), executor_(options.threads) {}

scenario::BatchReport Session::run(const std::string& name) {
    return run(registry_.expand(name));
}

scenario::BatchReport Session::run(const scenario::ScenarioSpec& spec) {
    return run(std::vector<scenario::ScenarioSpec>{spec});
}

scenario::BatchReport Session::run(
    const std::vector<scenario::ScenarioSpec>& specs) {
    scenario::BatchOptions batch;
    batch.use_solve_cache = options_.use_solve_cache;
    scenario::BatchRunner runner(executor_, batch);
    return runner.run(specs);
}

scenario::BatchReport Session::run_batch(
    const std::vector<std::string>& names) {
    std::vector<scenario::ScenarioSpec> specs;
    for (const auto& name : names)
        for (auto& spec : registry_.expand(name))
            specs.push_back(std::move(spec));
    return run(specs);
}

std::size_t Session::load_file(const std::string& path) {
    return registry_.load_file(path);
}

std::size_t Session::load_text(const std::string& text) {
    return registry_.load_text(text);
}

util::JsonValue Session::export_scenario(const std::string& name) const {
    return scenario::export_json(registry_, name);
}

util::JsonValue Session::export_catalog() const {
    return scenario::catalog_to_json(registry_.specs());
}

}  // namespace socbuf
