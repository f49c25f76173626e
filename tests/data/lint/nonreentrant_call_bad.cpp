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

void parse_all(exec::TaskGraph& graph, char** rows, int* out,
               std::size_t n) {
    for (std::size_t i = 0; i < n; ++i)
        graph.submit([&, i] { out[i] = count_fields(rows[i]); });
}

}  // namespace socbuf::scenario
