#include "metrics.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace pipebench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

double safe_ratio(double num, double den) {
    return den > 0.0 ? num / den : 0.0;
}

}  // namespace

double median(std::vector<double> values) {
    if (values.empty()) throw std::invalid_argument("median of nothing");
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                  : 0.5 * (values[mid - 1] + values[mid]);
}

Ratios ratio_metrics(double serial_wall_s, double wall_s, std::size_t workers,
                     double traced_wall_s, double layer_self_s) {
    Ratios out;
    out.speedup = safe_ratio(serial_wall_s, wall_s);
    out.efficiency = safe_ratio(out.speedup, static_cast<double>(workers));
    out.overhead = safe_ratio(traced_wall_s, serial_wall_s) - 1.0;
    out.coverage = safe_ratio(layer_self_s, traced_wall_s);
    return out;
}

std::vector<Metric> layer_metrics(const ReplayResult& serial,
                                  const ReplayResult& wide,
                                  const SessionTimes& session) {
    const std::vector<double> self = self_times(serial.spans);
    std::map<std::string, double> self_by_name;
    std::map<std::string, double> self_by_layer;
    std::map<std::string, double> inclusive_by_name;
    for (std::size_t i = 0; i < serial.spans.size(); ++i) {
        self_by_name[serial.spans[i].name] += self[i];
        self_by_layer[serial.spans[i].layer] += self[i];
        inclusive_by_name[serial.spans[i].name] += serial.spans[i].seconds();
    }
    double layer_self_s = 0.0;
    for (const auto& [layer, seconds] : self_by_layer)
        if (layer != "replay") layer_self_s += seconds;

    struct Rung {
        double solves = 0.0;
        double iterations = 0.0;
        double state_sweeps = 0.0;  // states x iterations
    };
    std::map<socbuf::ctmdp::SolverKind, Rung> rungs;
    double key_bytes = 0.0;
    double unconverged = 0.0;
    double escalations = 0.0;
    for (const SolveRecord& r : serial.solves) {
        if (r.hit) continue;
        Rung& rung = rungs[r.solved_by];
        rung.solves += 1.0;
        rung.iterations += static_cast<double>(r.iterations);
        rung.state_sweeps +=
            static_cast<double>(r.states) * static_cast<double>(r.iterations);
        key_bytes += static_cast<double>(r.key_bytes);
        if (!r.converged) unconverged += 1.0;
        if (r.solved_by != r.selected) escalations += 1.0;
    }
    const Rung lp = rungs[socbuf::ctmdp::SolverKind::kLp];
    const Rung pi = rungs[socbuf::ctmdp::SolverKind::kPolicyIteration];
    const Rung vi = rungs[socbuf::ctmdp::SolverKind::kValueIteration];
    const double lp_s = inclusive_by_name["ctmdp.lp"];
    const double pi_s = inclusive_by_name["ctmdp.pi"];
    const double vi_s = inclusive_by_name["ctmdp.vi"];
    const double sim_s = self_by_name["sim.simulate"];

    const Ratios ratios =
        ratio_metrics(session.serial_wall_s, session.wall_s, session.workers,
                      serial.wall_s, layer_self_s);
    const auto count = [](std::size_t n) { return static_cast<double>(n); };
    return {
        {"session.construct_s", session.construct_s, "s"},
        {"scenario.load_s", session.load_s, "s"},
        {"scenario.report_json_s", session.report_json_s, "s"},
        {"split.calls", count(serial.split_calls), "count"},
        {"split.s", self_by_layer["split"], "s"},
        {"insertion.plans_evaluated", count(serial.plans_evaluated), "count"},
        {"insertion.plan_space", count(serial.plan_space), "count"},
        {"insertion.evaluated_share",
         safe_ratio(count(serial.plans_evaluated), count(serial.plan_space)),
         "ratio"},
        {"insertion.self_s", self_by_layer["insertion"], "s"},
        {"core.sizing_runs", count(serial.sizing_runs), "count"},
        {"core.rounds", count(serial.rounds), "count"},
        {"core.model_build_s", inclusive_by_name["core.build_models"], "s"},
        {"core.model_states", count(serial.model_states), "count"},
        {"core.apportion_s", inclusive_by_name["core.apportion"], "s"},
        {"ctmdp.lookups", count(serial.cache.lookups()), "count"},
        {"ctmdp.cache_hit_rate", serial.cache.hit_rate(), "ratio"},
        {"ctmdp.cache_mb", count(serial.cache.bytes_resident) / kMiB, "MB"},
        {"ctmdp.key_mb", key_bytes / kMiB, "MB"},
        {"ctmdp.hit_s", inclusive_by_name["ctmdp.hit"], "s"},
        {"ctmdp.miss_s", lp_s + pi_s + vi_s, "s"},
        {"ctmdp.lp.solves", lp.solves, "count"},
        {"ctmdp.lp.pivots", lp.iterations, "count"},
        {"ctmdp.lp.s", lp_s, "s"},
        {"ctmdp.pi.solves", pi.solves, "count"},
        {"ctmdp.pi.updates", pi.iterations, "count"},
        {"ctmdp.pi.s", pi_s, "s"},
        {"ctmdp.vi.solves", vi.solves, "count"},
        {"ctmdp.vi.sweeps", vi.iterations, "count"},
        {"ctmdp.vi.s", vi_s, "s"},
        {"ctmdp.vi.ns_per_state_sweep", safe_ratio(vi_s * 1e9, vi.state_sweeps),
         "ns"},
        {"ctmdp.unconverged", unconverged, "count"},
        {"ctmdp.escalations", escalations, "count"},
        {"sim.runs", count(serial.sim_runs), "count"},
        {"sim.packets", static_cast<double>(serial.sim_packets), "count"},
        {"sim.s", sim_s, "s"},
        {"sim.packets_per_s",
         safe_ratio(static_cast<double>(serial.sim_packets), sim_s), "1/s"},
        {"sim.calibrate_s", inclusive_by_name["sim.calibrate"], "s"},
        {"scenario.eval_s", inclusive_by_name["scenario.eval"], "s"},
        {"exec.speedup", ratios.speedup, "ratio"},
        {"exec.efficiency", ratios.efficiency, "ratio"},
        {"exec.tasks", count(wide.exec_tasks), "count"},
        {"exec.wait_s", wide.exec_wait_s, "s"},
        {"trace.overhead", ratios.overhead, "ratio"},
        {"trace.coverage", ratios.coverage, "ratio"},
    };
}

}  // namespace pipebench
