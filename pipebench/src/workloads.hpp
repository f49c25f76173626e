// Workload generator: each benchmark workload is a scenario catalog
// document written from socbuf's shipped presets, with the benchmark seed
// and the workload's trim applied. The program under test only ever sees
// that document, through socbuf::Session::load_file.
#pragma once

#include "util/json.hpp"

#include <cstdint>
#include <string>

namespace pipebench {

/// Default seed of the workloads: the presets' own seed (the paper's
/// year). The held-out seed for checking later claims is 7919 (see the
/// README).
inline constexpr std::uint64_t kDefaultSeed = 2005;

/// Catalog document for `workload` at `seed`: every scenario it runs,
/// each with $.sim.seed = seed, plus one batch preset named after the
/// workload listing them. Throws std::invalid_argument for unknown names.
[[nodiscard]] socbuf::util::JsonValue make_workload(const std::string& workload,
                                                    std::uint64_t seed);

}  // namespace pipebench
