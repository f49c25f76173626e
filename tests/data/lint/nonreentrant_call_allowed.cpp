// Fixture: the same strtok loop with argued suppressions — here the
// caller serializes all parses behind the batch lock.
#include <cstddef>
#include <cstring>

namespace socbuf::scenario {

int count_fields(char* text) {
    int count = 0;
    // socbuf-lint: allow(nonreentrant-call) — fixture: caller holds the batch lock.
    for (char* tok = std::strtok(text, ";"); tok != nullptr;
         // socbuf-lint: allow(nonreentrant-call) — fixture: caller holds the batch lock.
         tok = std::strtok(nullptr, ";"))
        ++count;
    return count;
}

std::vector<int> parse_all(exec::Executor& executor, char** rows,
                           std::size_t n) {
    return executor.map(n,
                        [&](std::size_t i) { return count_fields(rows[i]); });
}

}  // namespace socbuf::scenario
