// socbuf_lint — project-specific static analysis for the socbuf tree:
// layering (each layer only reaches downward), determinism (no unordered
// iteration, ambient randomness, wall clocks or raw threads where results
// are folded, and no non-reentrant libc calls anywhere in src/) and
// header hygiene, with argued inline suppressions. Every rule looks at
// one file at a time.
//
//   socbuf_lint [--root DIR] src tools bench examples
//       Scan directories (or single files) and print one
//       `file:line: [rule] message` diagnostic per finding. Exit 0 when
//       clean, 1 when anything fired, 2 on usage errors.
//   socbuf_lint --as src/arch/x.cpp tests/data/lint/fixture.cpp
//       Lint one file as if it lived at the given repo-relative path —
//       how the fixture suite places known-bad snippets inside
//       determinism-scoped layers.
//   socbuf_lint --list-rules
//       Print every rule id with its one-line description.
//
// The rule and layer tables are documented in tools/README.md.
#include "lint.hpp"

#include <iostream>
#include <string>

namespace {

int usage() {
    std::cerr << "usage:\n"
                 "  socbuf_lint [--root DIR] [--as VPATH] <path>...\n"
                 "  socbuf_lint --list-rules\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    socbuf::lint::RunOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list-rules") {
            for (const std::string& rule : socbuf::lint::rule_ids())
                std::cout << rule << " — "
                          << socbuf::lint::rule_description(rule) << "\n";
            return 0;
        }
        if (arg == "--root" || arg == "--as") {
            if (i + 1 >= argc) return usage();
            (arg == "--root" ? options.root : options.as) = argv[++i];
            continue;
        }
        if (arg == "-h" || arg == "--help") return usage();
        if (!arg.empty() && arg[0] == '-') return usage();
        options.paths.push_back(arg);
    }
    if (options.paths.empty()) return usage();
    return socbuf::lint::run(options, std::cout, std::cerr);
}
