// Metric arithmetic: medians, the ratio metrics with their bases, and the
// per-layer metric table derived from the traced replays.
#pragma once

#include "replay.hpp"

#include <cstddef>
#include <string>
#include <vector>

namespace pipebench {

/// Median (mean of the middle two for even counts). Requires non-empty.
[[nodiscard]] double median(std::vector<double> values);

/// Ratio metrics and the base each one is taken against.
struct Ratios {
    double speedup = 0.0;     // serial_wall_s / wall_s
    double efficiency = 0.0;  // speedup / workers
    double overhead = 0.0;    // traced serial replay wall / serial_wall_s - 1
    double coverage = 0.0;    // layer self time / traced serial replay wall
};

[[nodiscard]] Ratios ratio_metrics(double serial_wall_s, double wall_s,
                                   std::size_t workers, double traced_wall_s,
                                   double layer_self_s);

/// Untraced measurements the per-layer table needs beside the replays.
struct SessionTimes {
    double construct_s = 0.0;    // median Session construction
    double load_s = 0.0;         // median Session::load_file
    double report_json_s = 0.0;  // median BatchReport::to_json
    double serial_wall_s = 0.0;  // Session::run at 1 thread
    double wall_s = 0.0;         // Session::run at `workers` threads
    std::size_t workers = 1;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Every per-layer metric, in a fixed order: the layer counts and self
/// times from the 1-thread replay, exec waits from the wide replay.
[[nodiscard]] std::vector<Metric> layer_metrics(
    const ReplayResult& serial, const ReplayResult& wide,
    const SessionTimes& session);

}  // namespace pipebench
