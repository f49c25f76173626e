// Fixture: linted as src/scenario/nonreentrant_call_bad.cpp — strtok
// keeps a hidden cursor between calls; a call from a worker body races
// with every other parse in flight.
#include <cstddef>
#include <cstring>

namespace socbuf::scenario {

int count_fields(char* text) {
    int count = 0;
    for (char* tok = std::strtok(text, ";"); tok != nullptr;
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
