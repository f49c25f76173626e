#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

#include "text_views.hpp"

namespace socbuf::lint {

namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------------ layers
//
// The ROADMAP's architecture layers as a *dependency* rank table: a file
// may include only modules of strictly lower rank (its own module is
// always fine). Ranks order the real dependency DAG of the tree — note
// that `exec` sits low (it depends on nothing but util; everything else
// fans work through it), even though the ROADMAP's pipeline narrative
// lists it mid-stack. Same-rank modules are mutually independent:
// a sideways include is as much a violation as an upward one.

struct LayerEntry {
    const char* module;
    int rank;
};

constexpr LayerEntry kLayerTable[] = {
    {"util", 0},
    {"arch", 1},
    {"des", 1},
    {"exec", 1},
    {"linalg", 1},
    {"lp", 1},
    {"rng", 1},
    {"ctmc", 2},
    {"traffic", 2},
    {"ctmdp", 3},
    {"queueing", 3},
    {"sim", 3},
    {"split", 3},
    {"insertion", 4},
    {"nonlinear", 4},
    {"core", 5},
    {"scenario", 6},
    {"session", 7},
};

int module_rank(const std::string& module) {
    for (const LayerEntry& entry : kLayerTable)
        if (module == entry.module) return entry.rank;
    return -1;
}

/// Module a repo-relative path belongs to ("" when outside src/ or in an
/// unknown src/ subdirectory).
std::string module_of(const std::string& virtual_path) {
    if (!starts_with(virtual_path, "src/")) return "";
    const std::size_t begin = 4;
    const std::size_t end = virtual_path.find('/', begin);
    if (end == std::string::npos) return "";
    const std::string module = virtual_path.substr(begin, end - begin);
    return module_rank(module) >= 0 ? module : "";
}

// ----------------------------------------------------------- suppressions

constexpr const char* kMarker = "socbuf-lint:";

/// File-level suppressions must sit in the file's first lines — an
/// opt-out buried mid-file is invisible to a reviewer reading the top.
constexpr std::size_t kAllowFileWindow = 10;

struct SuppressionScan {
    /// Rules suppressed per 1-based target line.
    std::map<std::size_t, std::set<std::string>> by_line;
    /// Rules suppressed for the whole file (allow-file form).
    std::set<std::string> file_rules;
    /// Malformed-annotation diagnostics (rule "suppression").
    std::vector<Diagnostic> malformed;
};

bool known_rule(const std::string& rule) {
    const std::vector<std::string>& ids = rule_ids();
    return std::find(ids.begin(), ids.end(), rule) != ids.end();
}

std::string unknown_rule_message(const std::string& rule) {
    std::string message = "unknown rule '" + rule + "'";
    const std::string nearest = nearest_rule(rule);
    if (!nearest.empty()) message += "; did you mean '" + nearest + "'?";
    return message;
}

/// Parse one comment line for a suppression annotation. Grammar (the
/// marker word, then): allow(rule[, rule...]) <justification> for one
/// line, or allow-file(rule[, rule...]) <justification> — within the
/// first kAllowFileWindow lines — for the whole file. The justification
/// must contain at least one alphanumeric character — an exception
/// nobody argued for is itself a diagnostic. Rule lists with
/// angle-bracket placeholders are documentation examples and ignored.
void scan_suppressions(const std::vector<std::string>& comment_lines,
                       const std::vector<std::string>& code_lines,
                       SuppressionScan& scan) {
    for (std::size_t index = 0; index < comment_lines.size(); ++index) {
        const std::string& comment = comment_lines[index];
        const std::size_t marker = comment.find(kMarker);
        if (marker == std::string::npos) continue;
        const std::size_t line = index + 1;
        std::size_t pos = marker + std::string(kMarker).size();
        while (pos < comment.size() &&
               std::isspace(static_cast<unsigned char>(comment[pos])) != 0)
            ++pos;
        const std::string file_form = "allow-file(";
        const std::string line_form = "allow(";
        bool whole_file = false;
        if (comment.compare(pos, file_form.size(), file_form) == 0) {
            whole_file = true;
            pos += file_form.size();
        } else if (comment.compare(pos, line_form.size(), line_form) == 0) {
            pos += line_form.size();
        } else {
            scan.malformed.push_back(
                {"", line, "suppression",
                 "malformed annotation: expected "
                 "'allow(rule[, rule...]) <justification>' or "
                 "'allow-file(rule[, rule...]) <justification>' after the "
                 "marker"});
            continue;
        }
        const std::size_t close = comment.find(')', pos);
        if (close == std::string::npos) {
            scan.malformed.push_back({"", line, "suppression",
                                      "malformed annotation: missing ')'"});
            continue;
        }
        const std::string list = comment.substr(pos, close - pos);
        if (list.find('<') != std::string::npos ||
            list.find('>') != std::string::npos)
            continue;  // documentation example, not an annotation
        std::set<std::string> rules;
        bool ok = true;
        std::stringstream stream(list);
        std::string item;
        while (std::getline(stream, item, ',')) {
            const std::string rule = trim(item);
            if (rule.empty() || !known_rule(rule) || rule == "suppression") {
                scan.malformed.push_back({"", line, "suppression",
                                          unknown_rule_message(rule)});
                ok = false;
                continue;
            }
            rules.insert(rule);
        }
        if (!ok || rules.empty()) continue;
        const std::string justification = comment.substr(close + 1);
        const bool justified =
            std::any_of(justification.begin(), justification.end(),
                        [](char c) {
                            return std::isalnum(
                                       static_cast<unsigned char>(c)) != 0;
                        });
        if (!justified) {
            scan.malformed.push_back(
                {"", line, "suppression",
                 "suppression needs a justification after the rule list"});
            continue;
        }
        if (whole_file) {
            if (line > kAllowFileWindow) {
                scan.malformed.push_back(
                    {"", line, "suppression",
                     "allow-file must appear within the first " +
                         std::to_string(kAllowFileWindow) +
                         " lines of the file"});
                continue;
            }
            scan.file_rules.insert(rules.begin(), rules.end());
            continue;
        }
        // A comment-only line annotates the line below it; an end-of-line
        // comment annotates its own line.
        const bool own_code = index < code_lines.size() &&
                              !blank_line(code_lines[index]);
        const std::size_t target = own_code ? line : line + 1;
        scan.by_line[target].insert(rules.begin(), rules.end());
    }
}

bool suppressed(const SuppressionScan& scan, const std::string& rule,
                std::size_t line) {
    if (scan.file_rules.count(rule) != 0) return true;
    const auto found = scan.by_line.find(line);
    return found != scan.by_line.end() && found->second.count(rule) != 0;
}

// ------------------------------------------------------------ rule scopes

bool is_header(const std::string& virtual_path) {
    const auto dot = virtual_path.rfind('.');
    if (dot == std::string::npos) return false;
    const std::string ext = virtual_path.substr(dot);
    return ext == ".hpp" || ext == ".h";
}

/// Determinism rules cover everything that feeds results or reports:
/// src/ (minus the exec layer, whose whole job is threads and claims),
/// tools/ and examples/. bench/ is measurement code — clocks are its
/// purpose — and tests/ is not scanned at all.
bool determinism_scope(const std::string& virtual_path) {
    if (starts_with(virtual_path, "src/"))
        return module_of(virtual_path) != "exec";
    return starts_with(virtual_path, "tools/") ||
           starts_with(virtual_path, "examples/");
}

/// The one sanctioned home for raw threading primitives outside exec:
/// the solve cache's slot locking (ROADMAP layer 5).
bool raw_thread_exempt(const std::string& virtual_path) {
    return virtual_path == "src/ctmdp/solve_cache.hpp" ||
           virtual_path == "src/ctmdp/solve_cache.cpp";
}

// ---------------------------------------------------------- rule patterns

const std::regex& include_prefix_re() {
    static const std::regex re(R"re(^\s*#\s*include\s*")re");
    return re;
}

const std::regex& include_path_re() {
    static const std::regex re(R"re(^\s*#\s*include\s*"([^"]+)")re");
    return re;
}

const std::regex& include_any_re() {
    static const std::regex re(R"re(^\s*#\s*include\b)re");
    return re;
}

const std::regex& random_re() {
    static const std::regex re(R"re(\b(srand|rand)\s*\(|\brandom_device\b)re");
    return re;
}

/// Free calls to non-reentrant libc functions: hidden static state
/// (strtok's cursor, localtime's tm, random's seed word) or
/// process-global tables (environ, locale) that turn a call from any
/// worker body into a race. rand/srand are random-source's, so one call
/// fires one rule. A name reached through `.` or `->` is a member call
/// and does not match.
const std::regex& nonreentrant_re() {
    static const std::regex re(
        R"re((?:^|[^\w.>\s])\s*(strtok|strerror|asctime|ctime|gmtime|localtime|random|srandom|drand48|lrand48|mrand48|setenv|putenv|unsetenv|tmpnam|setlocale|readdir|gethostbyname)\s*\()re");
    return re;
}

const std::regex& wall_clock_re() {
    static const std::regex re(
        R"re(_clock\s*::\s*now\b|\bgettimeofday\b|\bclock_gettime\b|\bclock\s*\(|\btime\s*\()re");
    return re;
}

const std::regex& raw_thread_re() {
    static const std::regex re(
        R"re(\bstd\s*::\s*(jthread|thread|async|timed_mutex|recursive_mutex|recursive_timed_mutex|shared_mutex|shared_timed_mutex|mutex|condition_variable_any|condition_variable)\b)re");
    return re;
}

const std::regex& pointer_key_re() {
    static const std::regex re(
        R"re(\bstd\s*::\s*(multimap|multiset|map|set)\s*<\s*[^,<>]*\*)re");
    return re;
}

const std::regex& unordered_re() {
    static const std::regex re(
        R"re(\bunordered_(map|set|multimap|multiset)\b)re");
    return re;
}

const std::regex& unordered_decl_re() {
    static const std::regex re(
        R"re(\bunordered_(?:map|set|multimap|multiset)\s*<)re");
    return re;
}

const std::regex& begin_call_re() {
    static const std::regex re(
        R"re(\b([A-Za-z_]\w*)\s*\.\s*(?:c|r|cr)?begin\s*\()re");
    return re;
}

const std::regex& range_for_re() {
    static const std::regex re(R"re(\bfor\s*\(([^;(){}]*)\))re");
    return re;
}

const std::regex& pragma_once_re() {
    static const std::regex re(R"re(^\s*#\s*pragma\s+once\b)re");
    return re;
}

const std::regex& using_namespace_re() {
    static const std::regex re(R"re(\busing\s+namespace\b)re");
    return re;
}

/// Names of unordered containers declared in the given blanked code
/// (variables, members and parameters of a direct unordered_* type;
/// aliases are out of reach of a text-level scan and documented so).
std::set<std::string> unordered_names(const std::string& code) {
    std::set<std::string> names;
    const auto end = std::sregex_iterator();
    for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                        unordered_decl_re());
         it != end; ++it) {
        std::size_t pos =
            static_cast<std::size_t>(it->position() + it->length());
        int depth = 1;
        while (pos < code.size() && depth > 0) {
            if (code[pos] == '<') ++depth;
            if (code[pos] == '>') --depth;
            ++pos;
        }
        while (pos < code.size() &&
               (std::isspace(static_cast<unsigned char>(code[pos])) != 0 ||
                code[pos] == '*' || code[pos] == '&'))
            ++pos;
        std::string name;
        while (pos < code.size() && ident_char(code[pos]))
            name.push_back(code[pos++]);
        if (name.empty() || std::isdigit(static_cast<unsigned char>(name[0])))
            continue;
        while (pos < code.size() &&
               std::isspace(static_cast<unsigned char>(code[pos])) != 0)
            ++pos;
        const char next = pos < code.size() ? code[pos] : ';';
        if (next == ';' || next == ',' || next == '=' || next == '{' ||
            next == '(' || next == ')' || next == '[')
            names.insert(name);
    }
    return names;
}

/// Identifiers appearing in a range-for's range expression.
std::vector<std::string> range_identifiers(const std::string& expr) {
    std::vector<std::string> out;
    std::size_t i = 0;
    while (i < expr.size()) {
        if (std::isalpha(static_cast<unsigned char>(expr[i])) != 0 ||
            expr[i] == '_') {
            std::string name;
            while (i < expr.size() && ident_char(expr[i]))
                name.push_back(expr[i++]);
            out.push_back(name);
        } else {
            ++i;
        }
    }
    return out;
}

/// The range expression of a range-based for capture, or "" for a
/// classic for. The separating ':' is the first one not part of '::'.
std::string range_expression(const std::string& capture) {
    for (std::size_t i = 0; i < capture.size(); ++i) {
        if (capture[i] != ':') continue;
        if (i + 1 < capture.size() && capture[i + 1] == ':') {
            ++i;
            continue;
        }
        if (i > 0 && capture[i - 1] == ':') continue;
        return capture.substr(i + 1);
    }
    return "";
}

// ------------------------------------------------------------- rule table

struct RuleInfo {
    const char* id;
    const char* description;
};

constexpr RuleInfo kRules[] = {
    {"layering",
     "an upward or sideways #include between source layers (each layer "
     "only reaches downward; see tools/README.md for the rank table)"},
    {"unordered-container",
     "std::unordered_map/set declared in determinism-scoped code; "
     "iteration order is unspecified, so justify order-safety with a "
     "suppression or use an ordered container"},
    {"unordered-iteration",
     "iteration over an unordered container in determinism-scoped code "
     "(range-for or begin()); the visit order may differ across runs "
     "and library versions"},
    {"random-source",
     "ambient randomness (rand, srand, std::random_device) — all "
     "stochastic behavior must flow from the seeded rng layer"},
    {"wall-clock",
     "wall-clock read (chrono ::now, time, clock_gettime, ...) outside "
     "bench/; timing diagnostics need an explicit justification"},
    {"raw-thread",
     "raw threading primitive (std::thread/async/mutex/...) outside "
     "src/exec/ and the solve cache; fan out through exec::Executor"},
    {"pointer-key",
     "ordered container keyed by a pointer; address order changes from "
     "run to run, so iteration feeds nondeterminism into folds"},
    {"nonreentrant-call",
     "call to a non-reentrant libc function (strtok, setenv, localtime, "
     "...) anywhere in src/; hidden process-global state races in any "
     "worker body"},
    {"pragma-once", "header without #pragma once"},
    {"using-namespace-header", "using namespace at header scope"},
    {"suppression",
     "malformed or unjustified suppression annotation (not itself "
     "suppressible)"},
};

// ------------------------------------------------------------ file linting

struct FileLint {
    const std::string& display_path;
    const std::string& virtual_path;
    const std::vector<std::string>& raw_lines;
    const std::vector<std::string>& code_lines;
    const SuppressionScan& suppressions;
    std::vector<Diagnostic> output;

    void emit(const char* rule, std::size_t line, std::string message) {
        if (suppressed(suppressions, rule, line)) return;
        output.push_back({display_path, line, rule, std::move(message)});
    }
};

void check_layering(FileLint& file) {
    const std::string includer_module = module_of(file.virtual_path);
    const int includer_rank =
        includer_module.empty() ? -1 : module_rank(includer_module);
    if (includer_rank < 0) return;  // tools/bench/examples sit on top
    for (std::size_t index = 0; index < file.code_lines.size(); ++index) {
        if (!std::regex_search(file.code_lines[index], include_prefix_re()))
            continue;
        std::smatch match;
        if (!std::regex_search(file.raw_lines[index], match,
                               include_path_re()))
            continue;
        const std::string target_path = "src/" + match[1].str();
        const std::string target_module = module_of(target_path);
        if (target_module.empty() || target_module == includer_module)
            continue;
        const int target_rank = module_rank(target_module);
        if (target_rank < includer_rank) continue;
        const char* relation = target_rank == includer_rank
                                   ? "same-rank modules stay independent"
                                   : "layers reach only downward";
        file.emit("layering", index + 1,
                  "layer " + includer_module + " (rank " +
                      std::to_string(includer_rank) +
                      ") may not include layer " + target_module + " (rank " +
                      std::to_string(target_rank) + "): " + relation);
    }
}

void check_patterns(FileLint& file) {
    const bool determinism = determinism_scope(file.virtual_path);
    const bool header = is_header(file.virtual_path);
    const bool src = starts_with(file.virtual_path, "src/");
    const bool thread_ok = !determinism ||
                           raw_thread_exempt(file.virtual_path);
    for (std::size_t index = 0; index < file.code_lines.size(); ++index) {
        const std::string& line = file.code_lines[index];
        const std::size_t number = index + 1;
        if (header && std::regex_search(line, using_namespace_re()))
            file.emit("using-namespace-header", number,
                      "using namespace at header scope leaks into every "
                      "includer");
        std::smatch call;
        if (src && std::regex_search(line, call, nonreentrant_re()))
            file.emit("nonreentrant-call", number,
                      "call to non-reentrant '" + call[1].str() +
                          "'; it reads or writes hidden process-global "
                          "state, which races in any worker body");
        if (!determinism) continue;
        if (std::regex_search(line, random_re()))
            file.emit("random-source", number,
                      "ambient randomness; derive all stochastic behavior "
                      "from the seeded rng layer");
        if (std::regex_search(line, wall_clock_re()))
            file.emit("wall-clock", number,
                      "wall-clock read outside bench/; results must not "
                      "depend on when or how fast the code runs");
        if (!thread_ok && std::regex_search(line, raw_thread_re()))
            file.emit("raw-thread", number,
                      "raw threading primitive outside src/exec/ (and the "
                      "solve cache); fan out through exec::Executor so "
                      "claims stay deterministic");
        if (std::regex_search(line, pointer_key_re()))
            file.emit("pointer-key", number,
                      "ordered container keyed by a pointer; address order "
                      "varies run to run");
        if (std::regex_search(line, unordered_re()) &&
            !std::regex_search(line, include_any_re()))
            file.emit("unordered-container", number,
                      "unordered container in determinism-scoped code; "
                      "justify that its order never feeds results or "
                      "reports (or use an ordered container)");
    }
}

void check_unordered_iteration(FileLint& file,
                               const std::set<std::string>& names) {
    if (!determinism_scope(file.virtual_path) || names.empty()) return;
    const auto end = std::sregex_iterator();
    for (std::size_t index = 0; index < file.code_lines.size(); ++index) {
        const std::string& line = file.code_lines[index];
        const std::size_t number = index + 1;
        for (auto it = std::sregex_iterator(line.begin(), line.end(),
                                            begin_call_re());
             it != end; ++it) {
            if (names.count((*it)[1].str()) != 0)
                file.emit("unordered-iteration", number,
                          "iteration over unordered container '" +
                              (*it)[1].str() +
                              "': the visit order is unspecified");
        }
        for (auto it = std::sregex_iterator(line.begin(), line.end(),
                                            range_for_re());
             it != end; ++it) {
            const std::string range = range_expression((*it)[1].str());
            for (const std::string& name : range_identifiers(range)) {
                if (names.count(name) != 0)
                    file.emit("unordered-iteration", number,
                              "range-for over unordered container '" + name +
                                  "': the visit order is unspecified");
            }
        }
    }
}

void check_pragma_once(FileLint& file) {
    if (!is_header(file.virtual_path)) return;
    for (const std::string& line : file.code_lines)
        if (std::regex_search(line, pragma_once_re())) return;
    file.emit("pragma-once", 1, "header is missing #pragma once");
}

void sort_diagnostics(std::vector<Diagnostic>& diagnostics) {
    std::sort(diagnostics.begin(), diagnostics.end(),
              [](const Diagnostic& a, const Diagnostic& b) {
                  return std::tie(a.file, a.line, a.rule, a.message) <
                         std::tie(b.file, b.line, b.rule, b.message);
              });
    diagnostics.erase(
        std::unique(diagnostics.begin(), diagnostics.end(),
                    [](const Diagnostic& a, const Diagnostic& b) {
                        return std::tie(a.file, a.line, a.rule, a.message) ==
                               std::tie(b.file, b.line, b.rule, b.message);
                    }),
        diagnostics.end());
}

bool lintable_extension(const fs::path& path) {
    const std::string ext = path.extension().string();
    return ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc";
}

bool read_file(const fs::path& path, std::string& out) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad()) return false;
    out = buffer.str();
    return true;
}

}  // namespace

const std::vector<std::string>& rule_ids() {
    static const std::vector<std::string> ids = [] {
        std::vector<std::string> out;
        for (const RuleInfo& rule : kRules) out.emplace_back(rule.id);
        return out;
    }();
    return ids;
}

std::string rule_description(const std::string& rule) {
    for (const RuleInfo& info : kRules)
        if (rule == info.id) return info.description;
    return "";
}

std::string nearest_rule(const std::string& rule) {
    // Plain Levenshtein distance; the rule table is tiny.
    const auto distance = [](const std::string& a, const std::string& b) {
        std::vector<std::size_t> row(b.size() + 1);
        for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
        for (std::size_t i = 1; i <= a.size(); ++i) {
            std::size_t diagonal = row[0];
            row[0] = i;
            for (std::size_t j = 1; j <= b.size(); ++j) {
                const std::size_t previous = row[j];
                const std::size_t substitute =
                    diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
                row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitute});
                diagonal = previous;
            }
        }
        return row[b.size()];
    };
    std::string best;
    std::size_t best_distance = static_cast<std::size_t>(-1);
    for (const std::string& id : rule_ids()) {
        if (id == "suppression") continue;  // never a valid allow target
        const std::size_t d = distance(rule, id);
        if (d < best_distance) {
            best_distance = d;
            best = id;
        }
    }
    // Only suggest plausible typos, not arbitrary words.
    const std::size_t threshold = std::max<std::size_t>(3, rule.size() / 2);
    return best_distance <= threshold ? best : "";
}

int layer_rank(const std::string& virtual_path) {
    const std::string module = module_of(virtual_path);
    return module.empty() ? -1 : module_rank(module);
}

std::vector<Diagnostic> lint_text(const std::string& display_path,
                                  const std::string& virtual_path,
                                  const std::string& text,
                                  const std::string* paired_header) {
    const Views views = split_views(text);
    const std::vector<std::string> raw_lines = split_lines(text);
    const std::vector<std::string> code_lines = split_lines(views.code);
    SuppressionScan suppressions;
    scan_suppressions(split_lines(views.comments), code_lines, suppressions);

    FileLint file{display_path, virtual_path, raw_lines,
                  code_lines,   suppressions, {}};
    check_layering(file);
    check_patterns(file);
    std::set<std::string> names = unordered_names(views.code);
    if (paired_header != nullptr) {
        const std::set<std::string> header_names =
            unordered_names(split_views(*paired_header).code);
        names.insert(header_names.begin(), header_names.end());
    }
    check_unordered_iteration(file, names);
    check_pragma_once(file);
    for (Diagnostic diagnostic : suppressions.malformed) {
        diagnostic.file = display_path;
        file.output.push_back(std::move(diagnostic));
    }
    sort_diagnostics(file.output);
    return file.output;
}

int run(const RunOptions& options, std::ostream& out, std::ostream& err) {
    const fs::path root =
        options.root.empty() ? fs::current_path() : fs::path(options.root);

    std::vector<fs::path> files;
    bool scanned_directory = false;
    for (const std::string& input : options.paths) {
        const fs::path path(input);
        std::error_code ec;
        if (fs::is_directory(path, ec)) {
            scanned_directory = true;
            for (fs::recursive_directory_iterator it(path, ec), done;
                 it != done; it.increment(ec)) {
                if (ec) break;
                if (it->is_regular_file() && lintable_extension(it->path()))
                    files.push_back(it->path());
            }
        } else if (fs::is_regular_file(path, ec)) {
            files.push_back(path);
        } else {
            err << "socbuf_lint: cannot read '" << input << "'\n";
            return 2;
        }
    }
    if (files.empty()) {
        err << "socbuf_lint: no .hpp/.cpp inputs\n";
        return 2;
    }
    if (!options.as.empty() && (files.size() != 1 || scanned_directory)) {
        err << "socbuf_lint: --as needs exactly one input file\n";
        return 2;
    }
    // Directory iteration order is unspecified; sort so the report (and
    // therefore the tool itself) is deterministic.
    std::sort(files.begin(), files.end(),
              [](const fs::path& a, const fs::path& b) {
                  return a.generic_string() < b.generic_string();
              });

    std::vector<Diagnostic> diagnostics;
    for (const fs::path& path : files) {
        std::string text;
        if (!read_file(path, text)) {
            err << "socbuf_lint: cannot read '" << path.generic_string()
                << "'\n";
            return 2;
        }
        std::string virtual_path = options.as;
        if (virtual_path.empty()) {
            const fs::path relative =
                fs::absolute(path).lexically_normal().lexically_relative(
                    fs::absolute(root).lexically_normal());
            virtual_path = relative.generic_string();
            if (virtual_path.empty() || starts_with(virtual_path, "../"))
                virtual_path = path.generic_string();
        }
        std::string paired_header;
        bool has_paired_header = false;
        if (path.extension() == ".cpp") {
            fs::path header = path;
            header.replace_extension(".hpp");
            has_paired_header =
                fs::exists(header) && read_file(header, paired_header);
        }
        std::vector<Diagnostic> found =
            lint_text(path.generic_string(), virtual_path, text,
                      has_paired_header ? &paired_header : nullptr);
        diagnostics.insert(diagnostics.end(),
                           std::make_move_iterator(found.begin()),
                           std::make_move_iterator(found.end()));
    }

    for (const Diagnostic& diagnostic : diagnostics)
        out << diagnostic.file << ":" << diagnostic.line << ": ["
            << diagnostic.rule << "] " << diagnostic.message << "\n";
    if (!diagnostics.empty()) {
        err << "socbuf_lint: " << diagnostics.size() << " diagnostic"
            << (diagnostics.size() == 1 ? "" : "s") << "\n";
        return 1;
    }
    return 0;
}

}  // namespace socbuf::lint
