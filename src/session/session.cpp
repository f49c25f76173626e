#include "session/session.hpp"

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

std::size_t Session::load_file(const std::string& path) {
    return registry_.load_file(path);
}

std::size_t Session::load_text(const std::string& text) {
    return registry_.load_text(text);
}

}  // namespace socbuf
