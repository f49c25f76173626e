#include "check.hpp"

#include "util/json.hpp"

namespace pipebench {

namespace {

/// The report's JSON with `workers`, the one field allowed to differ
/// across widths, zeroed.
std::string report_without_workers(
    const socbuf::scenario::BatchReport& report) {
    socbuf::util::JsonValue json =
        socbuf::util::JsonValue::parse(report.to_json(-1));
    json.set("workers", 0);
    return json.dump();
}

}  // namespace

CheckFailures check_sample(const socbuf::scenario::BatchReport& serial,
                           const socbuf::scenario::BatchReport& parallel) {
    CheckFailures failures;
    if (report_without_workers(serial) != report_without_workers(parallel))
        failures.push_back(
            "1-thread and 4-thread reports differ beyond `workers`");
    for (const auto* report : {&serial, &parallel})
        for (const auto& run : report->runs)
            if (run.insertion.searched &&
                !(run.insertion.searched_loss <= run.insertion.preset_loss))
                failures.push_back("run " + run.scenario + " budget " +
                                   std::to_string(run.budget) +
                                   ": searched_loss > preset_loss");
    return failures;
}

CheckFailures check_replay(const socbuf::scenario::BatchReport& report,
                           const std::vector<ReplayRun>& runs,
                           std::size_t cache_hits, std::size_t cache_misses) {
    CheckFailures failures;
    if (runs.size() != report.runs.size()) {
        failures.push_back("replay ran " + std::to_string(runs.size()) +
                           " jobs, the report has " +
                           std::to_string(report.runs.size()));
        return failures;
    }
    for (std::size_t j = 0; j < runs.size(); ++j) {
        const auto& want = report.runs[j];
        const std::string where = "run " + std::to_string(j) + " (" +
                                  want.scenario + " budget " +
                                  std::to_string(want.budget) + "): ";
        if (runs[j].constant_alloc != want.constant_alloc)
            failures.push_back(where + "constant_alloc differs");
        if (runs[j].resized_alloc != want.resized_alloc)
            failures.push_back(where + "resized_alloc differs");
        if (runs[j].post_total != want.post_total)
            failures.push_back(where + "post_total differs");
    }
    if (cache_hits != report.cache.hits || cache_misses != report.cache.misses)
        failures.push_back("solve-cache hits/misses " +
                           std::to_string(cache_hits) + "/" +
                           std::to_string(cache_misses) + " vs report " +
                           std::to_string(report.cache.hits) + "/" +
                           std::to_string(report.cache.misses));
    return failures;
}

}  // namespace pipebench
