#pragma once
/// socbuf_lint — the project-specific static analyzer behind the two
/// load-bearing contracts no off-the-shelf tool knows about:
///
///   * **Layering** — "each layer only reaches downward" (ROADMAP
///     architecture layers). Every `#include "module/..."` is checked
///     against a rank table of the source modules; an upward or
///     sideways include is a diagnostic, not a review comment.
///   * **Determinism** — "reports are bit-identical for any thread
///     count and schedule". Unordered-container iteration, ambient
///     randomness, wall-clock reads and raw threading primitives are
///     banned outside the layers whose job they are, and src/ calls no
///     non-reentrant libc function (strtok, localtime, setenv, ...):
///     their hidden process-global state races in any worker body, and
///     ThreadSanitizer does not see every such race.
///   * **Hygiene** — `#pragma once` in every header, no
///     `using namespace` at header scope.
///
/// Every rule looks at one file at a time. Rules are suppressible
/// inline, one line at a time, with a comment of the form
/// `socbuf-lint: allow(<rule-id>) — <why this use is safe>` on the
/// offending line, or alone on the line above it; a whole file opts out
/// of one rule with `socbuf-lint: allow-file(<rule-id>) — <why>` within
/// its first 10 lines. A suppression with no justification text after
/// the rule list is itself a diagnostic — the analyzer enforces that
/// every exception is argued. (Rule lists spelled with angle-bracket
/// placeholders, as here, are documentation and ignored.)
///
/// The engine is a library so `lint_test` can assert exact rule
/// firings; `tools/lint/main.cpp` wraps it as the `socbuf_lint`
/// binary. See `tools/README.md` for the full rule and layer tables.

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace socbuf::lint {

struct Diagnostic {
    std::string file;     ///< Path as reported to the user.
    std::size_t line = 0; ///< 1-based line number.
    std::string rule;     ///< Stable rule identifier (kebab-case).
    std::string message;
};

/// Every rule identifier, in documentation order.
const std::vector<std::string>& rule_ids();

/// One-line description of a rule ("" for an unknown id).
std::string rule_description(const std::string& rule);

/// The known rule id nearest to `rule` by edit distance, or "" when
/// nothing is plausibly close. Powers the unknown-rule diagnostics.
std::string nearest_rule(const std::string& rule);

/// Rank of the module a repo-relative path belongs to, or -1 when the
/// path is outside the layered tree (tools/, bench/, examples/ and
/// tests/ sit above every layer and may include anything).
int layer_rank(const std::string& virtual_path);

/// Lint one file's text with every rule, suppressions applied, sorted by
/// (line, rule). `display_path` is what diagnostics report;
/// `virtual_path` is the repo-relative location that layer and scope
/// decisions use (they differ only under the fixture-testing `--as`
/// flag). `paired_header`, when non-null, is the text of the sibling
/// .hpp whose member declarations extend the .cpp's set of known
/// unordered containers.
std::vector<Diagnostic> lint_text(const std::string& display_path,
                                  const std::string& virtual_path,
                                  const std::string& text,
                                  const std::string* paired_header);

struct RunOptions {
    /// Base directory that repo-relative virtual paths are computed
    /// against; empty = the current working directory.
    std::string root;
    /// Lint the (single) input as if it lived at this repo-relative
    /// path; empty = derive from the real path. Fixture tests use this
    /// to place known-bad snippets inside determinism-scoped layers.
    std::string as;
    /// Files or directories (scanned recursively for .hpp/.cpp).
    std::vector<std::string> paths;
};

/// Scan, lint each file, and print one `file:line: [rule] message` line
/// per diagnostic to `out`. Returns the process exit code: 0 clean, 1
/// when any diagnostic fired, 2 on usage or I/O errors (reported on
/// `err`).
int run(const RunOptions& options, std::ostream& out, std::ostream& err);

}  // namespace socbuf::lint
