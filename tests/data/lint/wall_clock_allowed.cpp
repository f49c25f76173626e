// Fixture: the same clock read as wall_clock_bad.cpp, justified as a
// timing diagnostic that never reaches a report.
#include <chrono>

double stamp() {
    // socbuf-lint: allow(wall-clock) — timing diagnostic only; never folded into reports.
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(now.time_since_epoch()).count();
}
