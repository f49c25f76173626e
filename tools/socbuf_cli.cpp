// socbuf_cli — the scenario catalog from the command line, as a thin
// client of the socbuf::Session facade. Scenarios are data: everything the
// CLI runs can be exported to JSON, edited, and run back from a file
// without recompiling.
//
//   socbuf_cli list
//       One line per registered scenario (name, testbench, job counts),
//       then the batch presets.
//   socbuf_cli show <name>
//       Full parameterization of one scenario, or a batch preset's
//       members.
//   socbuf_cli export <name> [--out FILE]
//       One scenario — or batch preset, as a {"scenarios": [...]}
//       catalog — as JSON ("-" = stdout, the default). The output is
//       loadable via `run --file` / `validate --file`.
//   socbuf_cli export --all [--dir DIR]
//       Every registered scenario to DIR/<name>.json (default: the
//       current directory), plus every batch preset as a catalog file.
//   socbuf_cli validate --file F [--file F ...]
//       Parse + strictly validate scenario files, and check that each
//       can run (scenario::check_runnable: every budget covers the
//       traffic-carrying buffer sites, every insertion candidate
//       resolves); exit 0 and per-file spec counts, or exit 2 with a
//       diagnostic naming the JSON path.
//   socbuf_cli run <name|--file F> [more names/files] [options]
//       Execute scenarios (registered names, batch presets, and/or files)
//       as one pipelined batch on a shared executor and print the summary
//       table.
//
// Run options:
//   --threads N          worker threads (0 = hardware concurrency;
//                        default 0)
//   --budgets A,B,...    override every selected scenario's budget list
//                        (no empty entries; each value at least the
//                        scenario's traffic-carrying buffer-site count)
//   --replications R     override the evaluation replication count (>= 1)
//   --iterations I       override the sizing iteration count (>= 1)
//   --horizon H          override the simulation horizon (> 0 time
//                        units); the warmup is reduced to H/10 only if it
//                        would otherwise reach past the horizon
//   --warmup W           override the statistics warmup explicitly (>= 0)
//   --seed S             override the base RNG seed
//   --no-cache           disable the batch-wide CTMDP solve cache
//   --json FILE          write the full structured report ("-" = stdout)
//   --csv FILE           write the summary as CSV ("-" = stdout)
//
// Results are bit-identical for any --threads value, and a file-loaded
// scenario reproduces its compiled preset's report exactly. Malformed or
// out-of-range option values, unknown scenario names, stray arguments and
// malformed scenario files are a usage error: exit code 2 with a
// diagnostic naming the flag, the name or the JSON path (never an
// uncaught parse exception).
#include "exec/thread_pool.hpp"
#include "scenario/scenario_io.hpp"
#include "session/session.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <system_error>
#include <vector>

namespace {

using socbuf::Session;
using socbuf::SessionOptions;
using socbuf::scenario::BatchReport;
using socbuf::scenario::ScenarioIoError;
using socbuf::scenario::ScenarioRegistry;
using socbuf::scenario::ScenarioSpec;

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage:\n"
                 "  %s list\n"
                 "  %s show <name>\n"
                 "  %s export <name> [--out FILE] | export --all [--dir DIR]\n"
                 "  %s validate --file F [--file F ...]\n"
                 "  %s run <name|--file F> [more names/files]\n"
                 "      [--threads N] [--budgets A,B,...] [--replications R]\n"
                 "      [--iterations I] [--horizon H] [--warmup W]\n"
                 "      [--seed S] [--no-cache]\n"
                 "      [--json FILE] [--csv FILE]\n",
                 argv0, argv0, argv0, argv0, argv0);
    return 2;
}

/// A name that is neither a registered scenario nor a batch preset is
/// malformed input, like a bad flag value.
int unknown_name(const std::string& name) {
    std::fprintf(stderr,
                 "invalid name '%s': no such scenario or batch (try: list)\n",
                 name.c_str());
    return 2;
}

// ------------------------------------------------------------------------
// Checked numeric parsing, on std::from_chars throughout. The std::sto*
// family it replaced silently accepted leading whitespace (" 12"),
// hexfloats ("0x10" parsed as 16.0) and locale-dependent forms, and
// reported overflow by *exception* — one missed catch and an
// out-of-range value wrapped or escaped as a crash. from_chars is
// locale-independent, never throws, and reports overflow as an explicit
// errc, so a value that does not fit the destination type is a usage
// error (exit 2 naming the flag) exactly like garbage text.

bool parse_unsigned(const std::string& text, unsigned long long& out) {
    if (text.empty() || text[0] == '-' || text[0] == '+') return false;
    const auto result =
        std::from_chars(text.data(), text.data() + text.size(), out);
    return result.ec == std::errc{} &&
           result.ptr == text.data() + text.size();
}

bool parse_number(const std::string& text, std::size_t& out) {
    unsigned long long v = 0;
    if (!parse_unsigned(text, v) ||
        v > std::numeric_limits<std::size_t>::max())
        return false;
    out = static_cast<std::size_t>(v);
    return true;
}

bool parse_number(const std::string& text, long& out) {
    if (text.empty()) return false;
    const auto result =
        std::from_chars(text.data(), text.data() + text.size(), out);
    return result.ec == std::errc{} &&
           result.ptr == text.data() + text.size();
}

bool parse_number(const std::string& text, double& out) {
    if (text.empty()) return false;
    const auto result =
        std::from_chars(text.data(), text.data() + text.size(), out);
    // "nan"/"inf" parse but would sail through every range guard (NaN
    // compares false to everything) and silently fall back to the preset
    // values — reject them as malformed instead. Magnitude overflow
    // ("1e999") is already an errc.
    return result.ec == std::errc{} &&
           result.ptr == text.data() + text.size() && std::isfinite(out);
}

/// Parse a comma-separated budget list. Every token must be a whole
/// number >= 1, so an empty entry ("--budgets 50,,70" or "--budgets ,")
/// is malformed rather than silently dropped.
bool parse_budgets(const std::string& csv, std::vector<long>& out) {
    out.clear();
    std::string token;
    for (const char c : csv + ",") {
        if (c != ',') {
            token.push_back(c);
            continue;
        }
        long value = 0;
        if (!parse_number(token, value) || value < 1) return false;
        out.push_back(value);
        token.clear();
    }
    return true;
}

int bad_value(const std::string& flag, const std::string& value,
              const std::string& requirement) {
    std::fprintf(stderr, "invalid value '%s' for %s (%s)\n", value.c_str(),
                 flag.c_str(), requirement.c_str());
    return 2;
}

int bad_scenario_file(const ScenarioIoError& error) {
    std::fprintf(stderr, "invalid scenario file: %s\n", error.what());
    return 2;
}

int list_scenarios() {
    // Registry-only: no Session (and no worker pool) needed to read
    // preset metadata.
    const ScenarioRegistry registry;
    socbuf::util::Table table(
        {"name", "testbench", "variants", "budgets", "reps", "jobs"});
    for (const auto& spec : registry.specs()) {
        std::vector<std::string> budgets;
        for (const long b : spec.budgets) budgets.push_back(std::to_string(b));
        table.add_row({spec.name, socbuf::scenario::to_string(spec.testbench),
                       std::to_string(spec.variants.size()),
                       socbuf::util::join(budgets, "/"),
                       std::to_string(spec.replications),
                       std::to_string(spec.job_count())});
    }
    std::printf("%s", table.to_string().c_str());
    if (!registry.batches().empty()) {
        std::printf("\nbatches (run several scenarios as one batch):\n");
        for (const auto& batch : registry.batches())
            std::printf("  %-14s %s [%s]\n", batch.name.c_str(),
                        batch.description.c_str(),
                        socbuf::util::join(batch.scenarios, ", ").c_str());
    }
    return 0;
}

int show_scenario(const std::string& name) {
    const ScenarioRegistry registry;
    if (registry.contains_batch(name)) {
        const auto& batch = registry.get_batch(name);
        std::printf("%s — %s\n", batch.name.c_str(),
                    batch.description.c_str());
        std::printf("  batch of:     %s\n",
                    socbuf::util::join(batch.scenarios, ", ").c_str());
        return 0;
    }
    if (!registry.contains(name)) return unknown_name(name);
    const ScenarioSpec& spec = registry.get(name);
    std::printf("%s — %s\n", spec.name.c_str(), spec.description.c_str());
    std::printf("  testbench:    %s\n",
                socbuf::scenario::to_string(spec.testbench));
    for (const auto& variant : spec.variants)
        std::printf("  variant:      %s\n",
                    variant.label.empty() ? "(default)"
                                          : variant.label.c_str());
    std::vector<std::string> budgets;
    for (const long b : spec.budgets) budgets.push_back(std::to_string(b));
    std::printf("  budgets:      %s\n",
                socbuf::util::join(budgets, ", ").c_str());
    std::printf("  replications: %zu\n", spec.replications);
    std::printf("  iterations:   %d\n", spec.sizing_iterations);
    std::printf("  models:       %s\n",
                spec.use_modulated_models ? "modulated (MMPP)" : "poisson");
    if (spec.insertion.search) {
        const std::string candidates =
            spec.insertion.candidates.empty()
                ? "all traffic-carrying bridge sites"
                : std::to_string(spec.insertion.candidates.size()) +
                      " named candidates";
        std::printf("  insertion:    placement search over %s "
                    "(exhaustive up to %zu)\n",
                    candidates.c_str(), spec.insertion.exhaustive_limit);
    }
    std::printf("  sim:          horizon %.0f, warmup %.0f, seed %llu\n",
                spec.sim.horizon, spec.sim.warmup,
                static_cast<unsigned long long>(spec.sim.seed));
    std::printf("  jobs:         %zu sizing, %zu evaluation\n",
                spec.run_count(), spec.job_count());
    return 0;
}

bool write_output(const std::string& path, const std::string& content,
                  const char* what) {
    if (path == "-") {
        std::printf("%s", content.c_str());
        return true;
    }
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot open %s for %s output\n", path.c_str(),
                     what);
        return false;
    }
    out << content;
    std::printf("wrote %s to %s\n", what, path.c_str());
    return true;
}

int export_scenarios(const std::vector<std::string>& args) {
    const ScenarioRegistry registry;
    bool all = false;
    std::string name;
    std::string out_path;
    std::string dir;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& arg = args[i];
        const auto next_value = [&]() -> const std::string* {
            if (i + 1 >= args.size()) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                return nullptr;
            }
            return &args[++i];
        };
        if (arg == "--all") {
            all = true;
        } else if (arg == "--out") {
            const std::string* v = next_value();
            if (v == nullptr) return 2;
            out_path = *v;
        } else if (arg == "--dir") {
            const std::string* v = next_value();
            if (v == nullptr) return 2;
            dir = *v;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "invalid option %s: unknown flag\n",
                         arg.c_str());
            return 2;
        } else if (name.empty()) {
            name = arg;
        } else {
            std::fprintf(stderr, "export takes one name (or --all)\n");
            return 2;
        }
    }
    if (all && !name.empty()) {
        std::fprintf(stderr, "export takes a name or --all, not both\n");
        return 2;
    }
    if (!all && name.empty()) {
        std::fprintf(stderr, "export needs a scenario name or --all\n");
        return 2;
    }
    // Reject the flag that would otherwise be silently ignored: --dir
    // only shapes the --all fan-out, --out only the single-name path.
    if (!all && !dir.empty()) {
        std::fprintf(stderr,
                     "--dir goes with --all; use --out FILE to export "
                     "'%s' to a file\n",
                     name.c_str());
        return 2;
    }
    if (all && !out_path.empty()) {
        std::fprintf(stderr,
                     "--out goes with a single name; use --dir DIR with "
                     "--all\n");
        return 2;
    }
    if (!all) {
        if (!registry.contains(name) && !registry.contains_batch(name))
            return unknown_name(name);
        return write_output(out_path.empty() ? "-" : out_path,
                            export_json(registry, name).dump(2) + "\n",
                            "scenario")
                   ? 0
                   : 1;
    }
    if (dir.empty()) dir = ".";
    std::size_t written = 0;
    for (const auto& spec : registry.specs()) {
        const std::string path = dir + "/" + spec.name + ".json";
        if (!write_output(path, socbuf::scenario::to_json(spec).dump(2) + "\n",
                          "scenario"))
            return 1;
        ++written;
    }
    for (const auto& batch : registry.batches()) {
        const std::string path = dir + "/" + batch.name + ".json";
        if (!write_output(path, export_json(registry, batch.name).dump(2) + "\n",
                          "batch"))
            return 1;
        ++written;
    }
    std::printf("exported %zu files to %s\n", written, dir.c_str());
    return 0;
}

int validate_files(const std::vector<std::string>& args) {
    std::vector<std::string> files;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--file") {
            if (i + 1 >= args.size()) {
                std::fprintf(stderr, "--file needs a value\n");
                return 2;
            }
            files.push_back(args[++i]);
        } else if (!args[i].empty() && args[i][0] == '-') {
            std::fprintf(stderr, "invalid option %s: unknown flag\n",
                         args[i].c_str());
            return 2;
        } else {
            files.push_back(args[i]);  // bare paths are accepted too
        }
    }
    if (files.empty()) {
        std::fprintf(stderr, "validate needs at least one --file\n");
        return 2;
    }
    for (const auto& file : files) {
        try {
            const auto specs = socbuf::scenario::load_scenario_file(file);
            // Round-trip check: a valid file must survive
            // dump -> parse -> from_json bit-identically, so schema and
            // serializer cannot drift apart silently. And it must run:
            // budgets that cover every site, candidates that resolve.
            for (const auto& spec : specs) {
                socbuf::scenario::check_runnable(spec);
                const auto json = socbuf::scenario::to_json(spec);
                const auto again = socbuf::scenario::spec_from_json(
                    socbuf::util::JsonValue::parse(json.dump()));
                if (!(again == spec)) {
                    std::fprintf(stderr,
                                 "invalid scenario file: %s: scenario '%s' "
                                 "does not round-trip through the schema\n",
                                 file.c_str(), spec.name.c_str());
                    return 2;
                }
            }
            std::printf("%s: ok (%zu scenario%s)\n", file.c_str(),
                        specs.size(), specs.size() == 1 ? "" : "s");
        } catch (const ScenarioIoError& error) {
            return bad_scenario_file(error);
        }
    }
    return 0;
}

int run_scenarios(const std::vector<std::string>& args) {
    SessionOptions session_options;
    std::string json_path;
    std::string csv_path;
    // Selections: registered names (scenarios or batch presets) and
    // scenario files, expanded in argument order. Overrides are collected
    // first and applied to every selected scenario, so flag order and
    // name order don't matter. Out-of-range values (--replications 0,
    // --horizon 0, an empty --budgets list) are rejected right here
    // rather than silently falling through to the preset values.
    std::vector<long> budgets_override;
    std::string budgets_text;
    std::size_t replications_override = 0;
    int iterations_override = 0;
    double horizon_override = 0.0;
    double warmup_override = -1.0;
    std::uint64_t seed_override = 0;
    bool has_seed_override = false;
    std::size_t threads = 0;

    // Registry only — the executing Session (and its worker pool) is
    // constructed after the selections and overrides are fully resolved.
    const ScenarioRegistry registry;
    std::vector<ScenarioSpec> specs;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& arg = args[i];
        const auto next_value = [&]() -> const std::string* {
            if (i + 1 >= args.size()) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                return nullptr;
            }
            return &args[++i];
        };
        if (arg == "--threads") {
            const std::string* v = next_value();
            if (v == nullptr) return 2;
            // Values past exec::kMaxThreads parse fine but would blow up
            // deep inside pool construction ("vector::reserve") — they
            // are a usage error of this flag, reported as one.
            if (!parse_number(*v, threads) ||
                threads > socbuf::exec::kMaxThreads)
                return bad_value(arg, *v,
                                 "expected a whole number between 0 and " +
                                     std::to_string(socbuf::exec::kMaxThreads));
        } else if (arg == "--file") {
            const std::string* v = next_value();
            if (v == nullptr) return 2;
            try {
                for (auto& spec : socbuf::scenario::load_scenario_file(*v))
                    specs.push_back(std::move(spec));
            } catch (const ScenarioIoError& error) {
                return bad_scenario_file(error);
            }
        } else if (arg == "--budgets") {
            const std::string* v = next_value();
            if (v == nullptr) return 2;
            if (!parse_budgets(*v, budgets_override))
                return bad_value(
                    arg, *v,
                    "expected a comma-separated list of whole numbers >= 1");
            budgets_text = *v;
        } else if (arg == "--replications") {
            const std::string* v = next_value();
            if (v == nullptr) return 2;
            if (!parse_number(*v, replications_override) ||
                replications_override < 1)
                return bad_value(arg, *v, "expected a whole number >= 1");
        } else if (arg == "--iterations") {
            const std::string* v = next_value();
            if (v == nullptr) return 2;
            long value = 0;
            if (!parse_number(*v, value) || value < 1 ||
                value > std::numeric_limits<int>::max())
                return bad_value(arg, *v,
                                 "expected a whole number >= 1 (within int "
                                 "range)");
            iterations_override = static_cast<int>(value);
        } else if (arg == "--horizon") {
            const std::string* v = next_value();
            if (v == nullptr) return 2;
            if (!parse_number(*v, horizon_override) || horizon_override <= 0.0)
                return bad_value(arg, *v, "expected a number > 0");
        } else if (arg == "--warmup") {
            const std::string* v = next_value();
            if (v == nullptr) return 2;
            if (!parse_number(*v, warmup_override) || warmup_override < 0.0)
                return bad_value(arg, *v, "expected a number >= 0");
        } else if (arg == "--seed") {
            const std::string* v = next_value();
            if (v == nullptr) return 2;
            unsigned long long seed_value = 0;
            if (!parse_unsigned(*v, seed_value))
                return bad_value(arg, *v, "expected a whole number >= 0");
            seed_override = static_cast<std::uint64_t>(seed_value);
            has_seed_override = true;
        } else if (arg == "--no-cache") {
            session_options.use_solve_cache = false;
        } else if (arg == "--json") {
            const std::string* v = next_value();
            if (v == nullptr) return 2;
            json_path = *v;
        } else if (arg == "--csv") {
            const std::string* v = next_value();
            if (v == nullptr) return 2;
            csv_path = *v;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "invalid option %s: unknown flag\n",
                         arg.c_str());
            return 2;
        } else {
            if (!registry.contains(arg) && !registry.contains_batch(arg))
                return unknown_name(arg);
            for (auto& spec : registry.expand(arg))
                specs.push_back(std::move(spec));
        }
    }
    if (specs.empty()) {
        std::fprintf(stderr,
                     "run needs at least one scenario name or --file\n");
        return 2;
    }
    for (auto& spec : specs) {
        if (!budgets_override.empty()) spec.budgets = budgets_override;
        if (replications_override > 0)
            spec.replications = replications_override;
        if (iterations_override > 0)
            spec.sizing_iterations = iterations_override;
        if (horizon_override > 0.0) {
            spec.sim.horizon = horizon_override;
            // Keep the preset warmup unless it would reach past the new
            // horizon; --warmup below still takes precedence.
            if (spec.sim.warmup >= horizon_override)
                spec.sim.warmup = horizon_override / 10.0;
        }
        if (warmup_override >= 0.0) spec.sim.warmup = warmup_override;
        if (has_seed_override) spec.sim.seed = seed_override;
        // Catch the cross-flag range error here, as a usage error naming
        // the flags, instead of letting the simulator's contract check
        // blow up mid-batch (presets always satisfy warmup < horizon, so
        // this can only arise from overrides).
        if (spec.sim.warmup >= spec.sim.horizon) {
            std::fprintf(stderr,
                         "invalid --warmup/--horizon combination for "
                         "scenario '%s': warmup %g must be below the "
                         "simulation horizon %g\n",
                         spec.name.c_str(), spec.sim.warmup,
                         spec.sim.horizon);
            return 2;
        }
        // A budget too small for the built system or an unresolvable
        // insertion candidate would only fail mid-batch; report it here,
        // naming --budgets when the budgets came from the flag.
        try {
            socbuf::scenario::check_runnable(spec);
        } catch (const ScenarioIoError& error) {
            if (!budgets_override.empty() &&
                error.path().rfind("$.budgets", 0) == 0)
                return bad_value(
                    "--budgets", budgets_text,
                    std::string(error.what()).substr(error.path().size() + 2));
            return bad_scenario_file(error);
        }
    }

    session_options.threads = threads;
    Session session(session_options);
    const BatchReport report = session.run(specs);

    std::printf("%s", report.summary_table().to_string().c_str());
    if (report.cache_enabled) {
        std::printf(
            "workers: %zu · solve cache: %zu hits / %zu misses (%.0f%% hit "
            "rate, %.2f MB resident)\n",
            report.workers, report.cache.hits, report.cache.misses,
            100.0 * report.cache.hit_rate(),
            static_cast<double>(report.cache.bytes_resident) /
                (1024.0 * 1024.0));
    } else {
        std::printf("workers: %zu · solve cache: disabled\n", report.workers);
    }

    bool ok = true;
    if (!json_path.empty())
        ok = write_output(json_path, report.to_json() + "\n",
                          "json report") && ok;
    if (!csv_path.empty())
        ok = write_output(csv_path, report.to_csv(), "csv report") && ok;
    return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage(argv[0]);
    const std::string command = argv[1];
    std::vector<std::string> rest(argv + 2, argv + argc);
    try {
        if (command == "list") {
            if (rest.empty()) return list_scenarios();
            std::fprintf(stderr, "invalid argument '%s': list takes none\n",
                         rest[0].c_str());
            return 2;
        }
        if (command == "show")
            return rest.size() == 1 ? show_scenario(rest[0]) : usage(argv[0]);
        if (command == "export") return export_scenarios(rest);
        if (command == "validate") return validate_files(rest);
        if (command == "run") return run_scenarios(rest);
    } catch (const ScenarioIoError& error) {
        return bad_scenario_file(error);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return usage(argv[0]);
}
