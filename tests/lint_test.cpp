// socbuf_lint — exact rule firings per fixture, suppression semantics,
// the layer rank table, and the binary's exit-code contract.
//
// Each known-bad snippet under tests/data/lint/ must trigger exactly its
// intended rule (and nothing else); each allowed twin must lint clean.
// Fixtures live outside the layered tree, so every case names the
// virtual path the snippet is linted "as" — the same mechanism the
// binary exposes via --as.
#include "lint.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

using socbuf::lint::Diagnostic;
using socbuf::lint::layer_rank;
using socbuf::lint::lint_text;
using socbuf::lint::nearest_rule;
using socbuf::lint::rule_ids;

std::string fixture_path(const std::string& name) {
    return std::string(SOCBUF_LINT_FIXTURES) + "/" + name;
}

std::string read_fixture(const std::string& name) {
    std::ifstream in(fixture_path(name), std::ios::binary);
    EXPECT_TRUE(in) << "missing fixture " << name;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

std::vector<std::string> fired_rules(const std::vector<Diagnostic>& found) {
    std::vector<std::string> rules;
    rules.reserve(found.size());
    for (const Diagnostic& diagnostic : found)
        rules.push_back(diagnostic.rule);
    return rules;
}

std::vector<Diagnostic> lint_fixture(const std::string& name,
                                     const std::string& virtual_path) {
    return lint_text(name, virtual_path, read_fixture(name), nullptr);
}

struct FixtureCase {
    const char* file;
    const char* virtual_path;
    std::vector<std::string> rules;  // expected firings, in line order
};

const std::vector<FixtureCase>& fixture_cases() {
    static const std::vector<FixtureCase> cases = {
        {"layering_bad.cpp", "src/arch/layering_bad.cpp", {"layering"}},
        {"layering_allowed.cpp", "src/arch/layering_allowed.cpp", {}},
        {"unordered_container_bad.hpp",
         "src/core/unordered_container_bad.hpp",
         {"unordered-container"}},
        {"unordered_container_allowed.hpp",
         "src/core/unordered_container_allowed.hpp",
         {}},
        {"unordered_iteration_bad.cpp",
         "src/core/unordered_iteration_bad.cpp",
         {"unordered-iteration", "unordered-iteration"}},
        {"unordered_iteration_allowed.cpp",
         "src/core/unordered_iteration_allowed.cpp",
         {}},
        {"random_source_bad.cpp", "src/sim/random_source_bad.cpp",
         {"random-source", "random-source"}},
        {"random_source_allowed.cpp", "src/sim/random_source_allowed.cpp",
         {}},
        {"wall_clock_bad.cpp", "src/scenario/wall_clock_bad.cpp",
         {"wall-clock"}},
        {"wall_clock_allowed.cpp", "src/scenario/wall_clock_allowed.cpp",
         {}},
        {"raw_thread_bad.cpp", "src/core/raw_thread_bad.cpp",
         {"raw-thread", "raw-thread"}},
        {"raw_thread_allowed.cpp", "src/core/raw_thread_allowed.cpp", {}},
        {"pointer_key_bad.cpp", "src/split/pointer_key_bad.cpp",
         {"pointer-key"}},
        {"pointer_key_allowed.cpp", "src/split/pointer_key_allowed.cpp", {}},
        {"nonreentrant_call_bad.cpp",
         "src/scenario/nonreentrant_call_bad.cpp",
         {"nonreentrant-call", "nonreentrant-call"}},
        {"nonreentrant_call_allowed.cpp",
         "src/scenario/nonreentrant_call_allowed.cpp",
         {}},
        {"pragma_once_bad.hpp", "src/util/pragma_once_bad.hpp",
         {"pragma-once"}},
        {"pragma_once_good.hpp", "src/util/pragma_once_good.hpp", {}},
        {"using_namespace_bad.hpp", "src/util/using_namespace_bad.hpp",
         {"using-namespace-header"}},
        {"using_namespace_allowed.hpp",
         "src/util/using_namespace_allowed.hpp",
         {}},
        {"suppression_unjustified.cpp",
         "src/core/suppression_unjustified.cpp",
         {"suppression", "random-source"}},
        {"suppression_unknown_rule.cpp",
         "src/util/suppression_unknown_rule.cpp",
         {"suppression"}},
        {"allow_file_ok.cpp", "src/core/allow_file_ok.cpp", {}},
        {"allow_file_unknown.cpp", "src/core/allow_file_unknown.cpp",
         {"suppression", "wall-clock"}},
        {"allow_file_unjustified.cpp",
         "src/core/allow_file_unjustified.cpp",
         {"suppression", "wall-clock"}},
        {"allow_file_late.cpp", "src/core/allow_file_late.cpp",
         {"suppression", "wall-clock"}},
    };
    return cases;
}

TEST(LintFixtures, EachFixtureTriggersExactlyItsRule) {
    for (const FixtureCase& fixture : fixture_cases()) {
        const std::vector<Diagnostic> found =
            lint_fixture(fixture.file, fixture.virtual_path);
        EXPECT_EQ(fired_rules(found), fixture.rules)
            << "fixture " << fixture.file << " linted as "
            << fixture.virtual_path;
    }
}

TEST(LintFixtures, BadFixturesReportTheExpectedLines) {
    // Line numbers are part of the diagnostic contract (editors jump to
    // them); pin the bad fixtures' exact firing lines.
    const std::map<std::string, std::vector<std::size_t>> expected = {
        {"layering_bad.cpp", {3}},
        {"unordered_container_bad.hpp", {9}},
        {"unordered_iteration_bad.cpp", {13, 17}},
        {"random_source_bad.cpp", {6, 8}},
        {"wall_clock_bad.cpp", {6}},
        {"raw_thread_bad.cpp", {7, 10}},
        {"pointer_key_bad.cpp", {8}},
        {"nonreentrant_call_bad.cpp", {11, 12}},
        {"pragma_once_bad.hpp", {1}},
        {"using_namespace_bad.hpp", {7}},
        {"suppression_unjustified.cpp", {6, 7}},
        {"suppression_unknown_rule.cpp", {4}},
        {"allow_file_unknown.cpp", {3, 10}},
        {"allow_file_unjustified.cpp", {3, 10}},
        {"allow_file_late.cpp", {11, 13}},
    };
    for (const FixtureCase& fixture : fixture_cases()) {
        const auto lines = expected.find(fixture.file);
        if (lines == expected.end()) continue;
        const std::vector<Diagnostic> found =
            lint_fixture(fixture.file, fixture.virtual_path);
        std::vector<std::size_t> got;
        got.reserve(found.size());
        for (const Diagnostic& diagnostic : found)
            got.push_back(diagnostic.line);
        EXPECT_EQ(got, lines->second) << "fixture " << fixture.file;
    }
}

TEST(LintLayering, RankTableMatchesTheRoadmapDag) {
    EXPECT_EQ(layer_rank("src/util/json.hpp"), 0);
    EXPECT_EQ(layer_rank("src/exec/thread_pool.hpp"), 1);
    EXPECT_EQ(layer_rank("src/ctmc/generator.hpp"), 2);
    EXPECT_EQ(layer_rank("src/ctmdp/solver.hpp"), 3);
    EXPECT_EQ(layer_rank("src/core/engine.hpp"), 5);
    EXPECT_EQ(layer_rank("src/scenario/scenario.hpp"), 6);
    EXPECT_EQ(layer_rank("src/session/session.hpp"), 7);
    // tools/bench/examples sit above every layer.
    EXPECT_EQ(layer_rank("tools/socbuf_cli.cpp"), -1);
    EXPECT_EQ(layer_rank("bench/bench_batch_scenarios.cpp"), -1);
}

std::vector<Diagnostic> lint_snippet(const std::string& virtual_path,
                                     const std::string& text) {
    return lint_text(virtual_path, virtual_path, text, nullptr);
}

TEST(LintLayering, DownwardIncludesAreClean) {
    EXPECT_TRUE(lint_snippet("src/session/x.cpp",
                             "#include \"scenario/scenario.hpp\"\n")
                    .empty());
    EXPECT_TRUE(lint_snippet("src/scenario/x.cpp",
                             "#include \"core/engine.hpp\"\n")
                    .empty());
    EXPECT_TRUE(
        lint_snippet("src/ctmc/x.cpp", "#include \"exec/parallel.hpp\"\n")
            .empty());
    // Same-module and same-directory includes are always fine.
    EXPECT_TRUE(
        lint_snippet("src/util/x.cpp", "#include \"util/json.hpp\"\n")
            .empty());
    EXPECT_TRUE(lint_snippet("src/util/x.cpp", "#include \"json.hpp\"\n")
                    .empty());
    // The top-rank directories may include anything.
    EXPECT_TRUE(lint_snippet("tools/x.cpp",
                             "#include \"session/session.hpp\"\n")
                    .empty());
}

TEST(LintLayering, UpwardAndSidewaysIncludesFire) {
    const std::vector<Diagnostic> upward = lint_snippet(
        "src/arch/x.hpp",
        "#pragma once\n#include \"scenario/scenario.hpp\"\n");
    ASSERT_EQ(upward.size(), 1u);
    EXPECT_EQ(upward[0].rule, "layering");
    EXPECT_EQ(upward[0].line, 2u);
    EXPECT_NE(upward[0].message.find(
                  "layer arch (rank 1) may not include layer scenario"),
              std::string::npos);

    // Sideways: ctmc and traffic share rank 2 and stay independent.
    const std::vector<Diagnostic> sideways = lint_snippet(
        "src/ctmc/x.cpp", "#include \"traffic/arrivals.hpp\"\n");
    ASSERT_EQ(sideways.size(), 1u);
    EXPECT_EQ(sideways[0].rule, "layering");
    EXPECT_NE(sideways[0].message.find("same-rank"), std::string::npos);
}

TEST(LintDeterminism, ScopeExemptionsHold) {
    // exec *is* the threading layer; the solve cache is the one
    // sanctioned lock user outside it.
    EXPECT_TRUE(
        lint_snippet("src/exec/x.cpp", "#include <mutex>\nstd::mutex m;\n")
            .empty());
    EXPECT_TRUE(lint_snippet("src/ctmdp/solve_cache.cpp",
                             "#include <mutex>\nstd::mutex m;\n")
                    .empty());
    // bench/ is measurement code: clocks are its purpose.
    EXPECT_TRUE(
        lint_snippet(
            "bench/x.cpp",
            "#include <chrono>\nauto t = std::chrono::steady_clock::now();\n")
            .empty());
    // tools/ is determinism-scoped.
    const std::vector<Diagnostic> tool_clock = lint_snippet(
        "tools/x.cpp",
        "#include <chrono>\nauto t = std::chrono::steady_clock::now();\n");
    ASSERT_EQ(tool_clock.size(), 1u);
    EXPECT_EQ(tool_clock[0].rule, "wall-clock");
}

TEST(LintDeterminism, PairedHeaderNamesExtendTheCpp) {
    // A member declared unordered in the .hpp and iterated in the .cpp
    // is caught even though the declaration is out of the .cpp's text.
    const std::string header =
        "#pragma once\n#include <string>\n#include <unordered_map>\n"
        "struct Cache {\n"
        "    // socbuf-lint: allow(unordered-container) — lookup-only "
        "index.\n"
        "    std::unordered_map<std::string, int> index_;\n"
        "    int fold() const;\n"
        "};\n";
    const std::string source =
        "#include \"cache.hpp\"\n"
        "int Cache::fold() const {\n"
        "    int sum = 0;\n"
        "    for (const auto& [key, value] : index_) sum += value;\n"
        "    return sum;\n"
        "}\n";
    const std::vector<Diagnostic> found =
        lint_text("cache.cpp", "src/ctmdp/cache.cpp", source, &header);
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].rule, "unordered-iteration");
    EXPECT_EQ(found[0].line, 4u);
}

TEST(LintSuppressions, CommentTextAndStringLiteralsDoNotFire) {
    // Banned tokens in comments and string literals are data, not code.
    EXPECT_TRUE(lint_snippet("src/core/x.cpp",
                             "// std::rand() in prose is fine\n"
                             "const char* kDoc = \"std::rand()\";\n")
                    .empty());
    // A suppression marker inside a string literal is data too: the
    // linter's own sources print these markers.
    EXPECT_TRUE(lint_snippet("src/core/x.cpp",
                             "const char* kMsg = \"socbuf-lint: "
                             "allow(oops)\";\n")
                    .empty());
}

TEST(LintSuppressions, SameLineAndNextLineForms) {
    // End-of-line form annotates its own line.
    EXPECT_TRUE(
        lint_snippet("src/core/x.cpp",
                     "#include <cstdlib>\n"
                     "int j() { return std::rand(); }  // socbuf-lint: "
                     "allow(random-source) — fixture.\n")
            .empty());
    // A comment-only suppression annotates the next line, not the one
    // after it.
    const std::vector<Diagnostic> gap = lint_snippet(
        "src/core/x.cpp",
        "#include <cstdlib>\n"
        "// socbuf-lint: allow(random-source) — aimed at the blank below.\n"
        "\n"
        "int j() { return std::rand(); }\n");
    ASSERT_EQ(gap.size(), 1u);
    EXPECT_EQ(gap[0].rule, "random-source");
    EXPECT_EQ(gap[0].line, 4u);
}

TEST(LintRules, EveryRuleHasADescription) {
    for (const std::string& rule : rule_ids())
        EXPECT_FALSE(socbuf::lint::rule_description(rule).empty()) << rule;
    EXPECT_TRUE(socbuf::lint::rule_description("no-such-rule").empty());
}

TEST(LintNonreentrant, CoversAllOfSrcAndFreeCallsOnly) {
    // The rule is per-file: a strtok call anywhere under src/ fires,
    // whether or not the file hands work to a worker, and src/exec/ is
    // in scope too.
    const std::vector<Diagnostic> plain =
        lint_snippet("src/util/x.cpp",
                     "#include <cstring>\n"
                     "char* first(char* s) { return std::strtok(s, \",\"); }\n");
    ASSERT_EQ(plain.size(), 1u);
    EXPECT_EQ(plain[0].rule, "nonreentrant-call");
    EXPECT_EQ(plain[0].line, 2u);
    EXPECT_NE(plain[0].message.find("'strtok'"), std::string::npos);
    const std::string text = read_fixture("nonreentrant_call_bad.cpp");
    EXPECT_EQ(fired_rules(lint_text("f.cpp", "src/exec/f.cpp", text,
                                    nullptr)),
              std::vector<std::string>(2, "nonreentrant-call"));
    // bench/, tests/ and tools/ are measurement or launcher code whose
    // output is not part of the bit-identical report contract; the same
    // known-bad body linted there comes back clean.
    for (const char* path : {"bench/f.cpp", "tests/f.cpp", "tools/f.cpp"})
        EXPECT_TRUE(lint_text("f.cpp", path, text, nullptr).empty())
            << path;
    // A member function that happens to share a libc name is not the
    // libc function.
    EXPECT_TRUE(lint_snippet("src/util/x.cpp",
                             "int f(T obj, T* p) {\n"
                             "    return obj.strtok(1) + p->strtok(2) +\n"
                             "           obj . localtime(3);\n"
                             "}\n")
                    .empty());
}

TEST(LintSuppressions, UnknownRuleNamesTheNearestValidRule) {
    const std::vector<Diagnostic> found = lint_fixture(
        "allow_file_unknown.cpp", "src/core/allow_file_unknown.cpp");
    ASSERT_FALSE(found.empty());
    EXPECT_EQ(found[0].rule, "suppression");
    EXPECT_NE(found[0].message.find("unknown rule 'wall-clok'"),
              std::string::npos);
    EXPECT_NE(found[0].message.find("did you mean 'wall-clock'?"),
              std::string::npos);
}

TEST(LintSuppressions, LateAllowFileSaysWhyItWasRejected) {
    const std::vector<Diagnostic> found = lint_fixture(
        "allow_file_late.cpp", "src/core/allow_file_late.cpp");
    ASSERT_FALSE(found.empty());
    EXPECT_EQ(found[0].rule, "suppression");
    EXPECT_NE(found[0].message.find("first 10 lines"), std::string::npos);
}

TEST(LintRules, NearestRuleSuggestsPlausibleTyposOnly) {
    EXPECT_EQ(nearest_rule("wall-clok"), "wall-clock");
    EXPECT_EQ(nearest_rule("nonreentrant-cal"), "nonreentrant-call");
    EXPECT_EQ(nearest_rule("pointer_key"), "pointer-key");
    EXPECT_EQ(nearest_rule("zzzzzz"), "");
}

int run_binary(const std::string& arguments) {
    const std::string command = std::string(SOCBUF_LINT_BIN) + " " +
                                arguments + " >/dev/null 2>&1";
    const int status = std::system(command.c_str());
    return WEXITSTATUS(status);
}

TEST(LintBinary, ExitCodesFollowTheContract) {
    // 0: clean input.
    EXPECT_EQ(run_binary("--as src/util/x.hpp " +
                         fixture_path("pragma_once_good.hpp")),
              0);
    // 1: diagnostics fired.
    EXPECT_EQ(run_binary("--as src/arch/x.cpp " +
                         fixture_path("layering_bad.cpp")),
              1);
    // 2: usage errors (no inputs; unreadable path; unknown flags). The
    // removed baseline and output-format flags are rejected, not
    // silently ignored on an otherwise clean input.
    EXPECT_EQ(run_binary(""), 2);
    EXPECT_EQ(run_binary(fixture_path("no_such_fixture.cpp")), 2);
    const std::string clean = " " + fixture_path("pragma_once_good.hpp");
    EXPECT_EQ(run_binary("--baseline x" + clean), 2);
    EXPECT_EQ(run_binary("--write-baseline x" + clean), 2);
    EXPECT_EQ(run_binary("--format=json" + clean), 2);
}

std::string run_binary_stdout(const std::string& arguments) {
    const std::string command =
        std::string(SOCBUF_LINT_BIN) + " " + arguments + " 2>/dev/null";
    FILE* pipe = popen(command.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    if (pipe == nullptr) return "";
    std::string out;
    char buffer[4096];
    std::size_t got = 0;
    while ((got = std::fread(buffer, 1, sizeof buffer, pipe)) > 0)
        out.append(buffer, got);
    pclose(pipe);
    return out;
}

TEST(LintBinary, ListRulesShowsIdAndDescription) {
    const std::string out = run_binary_stdout("--list-rules");
    std::size_t lines = 0;
    for (const char c : out) lines += c == '\n' ? 1 : 0;
    EXPECT_EQ(lines, rule_ids().size());
    // Every documented rule id appears with its description.
    for (const std::string& rule : rule_ids())
        EXPECT_NE(out.find(rule + " — " +
                           socbuf::lint::rule_description(rule) + "\n"),
                  std::string::npos)
            << rule;
}

}  // namespace
