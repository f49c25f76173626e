// Fixture: linted as src/core/allow_file_ok.cpp — a file-level
// opt-out within the first 10 lines suppresses its rule everywhere in
// the file.
// socbuf-lint: allow-file(wall-clock) — fixture: progress logging only,
// never folded into results.
#include <chrono>

namespace socbuf::core {

inline double stamp() {
    const auto tick = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(tick.time_since_epoch()).count();
}

}  // namespace socbuf::core
