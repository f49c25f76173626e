// socbuf::Session — the one-object entry point to the scenario system.
//
// A Session owns the two pieces every consumer previously wired by hand:
//
//   * the exec::Executor (one worker pool for everything the session runs),
//   * the ScenarioRegistry (built-in presets plus whatever load_file adds).
//
// Every run is one scenario::BatchRunner batch with its own
// ctmdp::SolveCache, so two runs of the same workload produce
// bit-identical reports.
//
// The paper's experiments are catalog presets ("figure3", and
// "np-baseline" for Table 1); the benches, examples and socbuf_cli are thin
// clients of this facade:
//
//     socbuf::Session session;
//     auto report = session.run("np-baseline");          // preset by name
//     auto suite  = session.run("paper-suite");          // batch preset
//     auto spec = session.registry().get("figure3");     // scenarios are
//     spec.replications = 2;                             // plain data
//     auto small = session.run(spec);
//     session.load_file("my_sweep.json");                // ... and files
//     auto custom = session.run("my-sweep");
//
// Reports are bit-identical for any SessionOptions::threads value — the
// BatchRunner determinism contract, surfaced at the facade.
#pragma once

#include "exec/executor.hpp"
#include "scenario/batch_runner.hpp"
#include "scenario/scenario.hpp"

#include <cstddef>
#include <string>
#include <vector>

namespace socbuf {

struct SessionOptions {
    /// Worker threads (0 = hardware concurrency). Results are
    /// bit-identical for any value.
    std::size_t threads = 0;
    /// Memoize subsystem CTMDP solves across every engine run of a batch.
    bool use_solve_cache = true;
};

class Session {
public:
    explicit Session(SessionOptions options = {});

    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    [[nodiscard]] scenario::ScenarioRegistry& registry() { return registry_; }
    [[nodiscard]] const scenario::ScenarioRegistry& registry() const {
        return registry_;
    }
    [[nodiscard]] exec::Executor& executor() { return executor_; }
    [[nodiscard]] std::size_t workers() const { return executor_.workers(); }

    /// Run a registered scenario — or batch preset — by name. Throws
    /// util::ContractViolation for unknown names.
    [[nodiscard]] scenario::BatchReport run(const std::string& name);
    /// Run an ad-hoc spec (validated by the runner).
    [[nodiscard]] scenario::BatchReport run(const scenario::ScenarioSpec& spec);
    /// Run ad-hoc specs as one batch (registry().expand resolves names).
    [[nodiscard]] scenario::BatchReport run(
        const std::vector<scenario::ScenarioSpec>& specs);

    /// Register every scenario in a scenario_io JSON file; returns how
    /// many were added. Throws scenario::ScenarioIoError (naming the JSON
    /// path or file) on malformed input.
    std::size_t load_file(const std::string& path);
    /// As load_file, on raw JSON text.
    std::size_t load_text(const std::string& text);

private:
    SessionOptions options_;
    exec::Executor executor_;
    scenario::ScenarioRegistry registry_;
};

}  // namespace socbuf
