#include "util/contracts.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/numeric.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

#include <gtest/gtest.h>

#include <clocale>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>

namespace su = socbuf::util;

TEST(Contracts, RequireThrowsWithLocation) {
    try {
        SOCBUF_REQUIRE_MSG(1 == 2, "impossible arithmetic");
        FAIL() << "expected ContractViolation";
    } catch (const su::ContractViolation& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("1 == 2"), std::string::npos);
        EXPECT_NE(what.find("impossible arithmetic"), std::string::npos);
        EXPECT_NE(what.find("util_test.cpp"), std::string::npos);
    }
}

TEST(Contracts, RequirePassesSilently) {
    EXPECT_NO_THROW(SOCBUF_REQUIRE(2 + 2 == 4));
}

TEST(Log, ThresholdFiltersMessages) {
    const su::LogLevel old = su::log_level();
    su::set_log_level(su::LogLevel::kError);
    EXPECT_EQ(su::log_level(), su::LogLevel::kError);
    // Below threshold: must not crash and must be cheap.
    su::log(su::LogLevel::kDebug, "invisible ", 42);
    su::set_log_level(old);
}

TEST(Strings, JoinHandlesEmptyAndMany) {
    EXPECT_EQ(su::join({}, ","), "");
    EXPECT_EQ(su::join({"a"}, ","), "a");
    EXPECT_EQ(su::join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(Strings, FormatFixed) {
    EXPECT_EQ(su::format_fixed(3.14159, 2), "3.14");
    EXPECT_EQ(su::format_fixed(-0.5, 1), "-0.5");
    EXPECT_EQ(su::format_fixed(2.0, 0), "2");
}

TEST(Strings, FormatCompactIntegersStayIntegers) {
    EXPECT_EQ(su::format_compact(42.0), "42");
    EXPECT_EQ(su::format_compact(1.5), "1.500");
}

TEST(Strings, Padding) {
    EXPECT_EQ(su::pad_left("ab", 4), "  ab");
    EXPECT_EQ(su::pad_right("ab", 4), "ab  ");
    EXPECT_EQ(su::pad_left("abcdef", 4), "abcdef");
}

TEST(Strings, StartsWith) {
    EXPECT_TRUE(su::starts_with("balance(x)", "balance"));
    EXPECT_FALSE(su::starts_with("bal", "balance"));
}

TEST(Numeric, StableSumBeatsNaiveOnCancellation) {
    std::vector<double> values;
    values.push_back(1.0);
    for (int i = 0; i < 1000; ++i) values.push_back(1e-16);
    const double s = su::stable_sum(values);
    EXPECT_NEAR(s, 1.0 + 1000e-16, 1e-18);
}

TEST(Numeric, MeanAndStddev) {
    EXPECT_DOUBLE_EQ(su::mean({}), 0.0);
    EXPECT_DOUBLE_EQ(su::mean({2.0, 4.0, 6.0}), 4.0);
    EXPECT_DOUBLE_EQ(su::sample_stddev({5.0}), 0.0);
    EXPECT_NEAR(su::sample_stddev({2.0, 4.0, 6.0}), 2.0, 1e-12);
}

TEST(Numeric, ApportionExactTotal) {
    const auto out = su::apportion_largest_remainder(10, {1.0, 1.0, 1.0});
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0L), 10);
    // 10/3: two entries get 3, one gets 4 (first by remainder order).
    EXPECT_EQ(out[0], 4);
    EXPECT_EQ(out[1], 3);
    EXPECT_EQ(out[2], 3);
}

TEST(Numeric, ApportionRespectsFloors) {
    const auto out =
        su::apportion_largest_remainder(9, {0.0, 0.0, 100.0}, 1);
    EXPECT_EQ(out[0], 1);
    EXPECT_EQ(out[1], 1);
    EXPECT_EQ(out[2], 7);
}

TEST(Numeric, ApportionProportionality) {
    const auto out = su::apportion_largest_remainder(100, {1.0, 3.0});
    EXPECT_EQ(out[0], 25);
    EXPECT_EQ(out[1], 75);
}

TEST(Numeric, ApportionZeroWeightsSpreadEvenly) {
    const auto out = su::apportion_largest_remainder(5, {0.0, 0.0});
    EXPECT_EQ(out[0] + out[1], 5);
    EXPECT_LE(std::abs(out[0] - out[1]), 1);
}

TEST(Numeric, ApportionRejectsBadInput) {
    EXPECT_THROW(su::apportion_largest_remainder(1, {}),
                 su::ContractViolation);
    EXPECT_THROW(su::apportion_largest_remainder(1, {1.0, 1.0}, 1),
                 su::ContractViolation);
    EXPECT_THROW(su::apportion_largest_remainder(3, {-1.0, 1.0}),
                 su::ContractViolation);
}

class ApportionPropertyTest : public ::testing::TestWithParam<long> {};

TEST_P(ApportionPropertyTest, SumsToTotalAndStaysNearProportional) {
    const long total = GetParam();
    const std::vector<double> weights{0.5, 2.5, 3.0, 1.0, 7.7};
    const auto out = su::apportion_largest_remainder(total, weights, 1);
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0L), total);
    const double wsum = 14.7;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        const double exact =
            static_cast<double>(total - 5) * weights[i] / wsum + 1.0;
        // Hamilton apportionment never strays more than 1 unit from the
        // exact share (plus the floor).
        EXPECT_NEAR(static_cast<double>(out[i]), exact, 1.0 + 1e-9)
            << "entry " << i << " for total " << total;
    }
}

INSTANTIATE_TEST_SUITE_P(Totals, ApportionPropertyTest,
                         ::testing::Values(5L, 6L, 13L, 40L, 160L, 320L, 640L,
                                           1000L));

TEST(Numeric, Argmax) {
    EXPECT_EQ(su::argmax({1.0, 5.0, 3.0}), 1u);
    EXPECT_EQ(su::argmax({7.0, 7.0}), 0u);  // first on ties
    EXPECT_THROW((void)su::argmax({}), su::ContractViolation);
}

TEST(Numeric, LowerBoundIndex) {
    const std::vector<double> cum{0.1, 0.4, 0.9, 1.0};
    EXPECT_EQ(su::lower_bound_index(cum, 0.05), 0u);
    EXPECT_EQ(su::lower_bound_index(cum, 0.4), 1u);
    EXPECT_EQ(su::lower_bound_index(cum, 0.95), 3u);
    EXPECT_EQ(su::lower_bound_index(cum, 2.0), 3u);  // clamps
}

TEST(Table, RendersAlignedColumns) {
    su::Table t({"name", "value"});
    t.add_row({"alpha", "1"});
    t.add_row({"b", "22"});
    const std::string s = t.to_string();
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("-----"), std::string::npos);
    EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, NumericRowFormatsValues) {
    su::Table t({"proc", "pre", "post"});
    t.add_numeric_row("p1", {70.0, 83.0}, 0);
    EXPECT_NE(t.to_string().find("83"), std::string::npos);
}

TEST(Table, CsvOutput) {
    su::Table t({"a", "b"});
    t.add_row({"1", "2"});
    EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(Table, RejectsMismatchedRow) {
    su::Table t({"a", "b"});
    EXPECT_THROW(t.add_row({"only-one"}), su::ContractViolation);
}

TEST(Table, CsvEscapesCommasQuotesAndNewlinesPerRfc4180) {
    // Regression: cells with commas used to be emitted unquoted, silently
    // shifting every following column.
    su::Table t({"name", "note"});
    t.add_row({"np-load-sweep", "load 0.8, 1.0, 1.25"});
    t.add_row({"quoted", "he said \"go\""});
    t.add_row({"multiline", "a\nb"});
    EXPECT_EQ(t.to_csv(),
              "name,note\n"
              "np-load-sweep,\"load 0.8, 1.0, 1.25\"\n"
              "quoted,\"he said \"\"go\"\"\"\n"
              "multiline,\"a\nb\"\n");
}

TEST(Table, JsonEmissionKeepsHeadersAndCells) {
    su::Table t({"a", "b"});
    t.add_row({"x,y", "2"});
    const auto parsed = su::JsonValue::parse(t.to_json());
    EXPECT_EQ(parsed.at("headers").at(1).as_string(), "b");
    EXPECT_EQ(parsed.at("rows").at(0).at(0).as_string(), "x,y");
}

TEST(Json, DumpParseRoundTripIsAFixedPoint) {
    su::JsonValue root = su::JsonValue::object();
    root.set("name", "np-baseline");
    root.set("ok", true);
    root.set("nothing", su::JsonValue());
    root.set("pi", 3.141592653589793);
    root.set("tiny", 4.9e-324);
    root.set("count", std::size_t{640});
    su::JsonValue arr = su::JsonValue::array();
    arr.push_back(-1.5);
    arr.push_back("quote \" backslash \\ newline \n tab \t");
    arr.push_back(su::JsonValue::array());
    root.set("items", std::move(arr));

    const std::string compact = root.dump();
    const su::JsonValue reparsed = su::JsonValue::parse(compact);
    EXPECT_EQ(reparsed, root);
    EXPECT_EQ(reparsed.dump(), compact);
    // Pretty output parses back to the same value too.
    EXPECT_EQ(su::JsonValue::parse(root.dump(2)), root);
}

TEST(Json, NumbersSurviveWithFullPrecision) {
    const double v = 0.1 + 0.2;  // not representable as a short decimal
    su::JsonValue n(v);
    EXPECT_EQ(su::JsonValue::parse(n.dump()).as_number(), v);
}

TEST(Json, ArbitraryFiniteDoublesRoundTripBitExactly) {
    // Shortest-round-trip emission is contractual for *every* finite
    // double, not just preset-friendly decimals: subnormals, values a
    // hair off a representable boundary, huge and tiny magnitudes, and
    // negative zero must all reparse to the identical bits (and the
    // emitted text must be a fixed point of dump -> parse -> dump).
    const double cases[] = {
        0.1 + 0.2,
        1.0 / 3.0,
        -1.0 / 3.0,
        2.0 / 3.0,
        4000.0 * (1.0 + 1e-15),
        1e-300,
        -1e-300,
        4.9e-324,                    // smallest subnormal
        2.2250738585072014e-308,     // smallest normal
        1.7976931348623157e308,      // largest finite
        -1.7976931348623157e308,
        123456789.123456789,
        -0.0,
        9007199254740993.0,          // 2^53 + 1 rounds to 2^53
        3.141592653589793,
    };
    for (const double v : cases) {
        const std::string emitted = su::JsonValue(v).dump();
        const double reparsed = su::JsonValue::parse(emitted).as_number();
        std::uint64_t want = 0;
        std::uint64_t got = 0;
        std::memcpy(&want, &v, sizeof(want));
        std::memcpy(&got, &reparsed, sizeof(got));
        EXPECT_EQ(got, want) << "value " << emitted;
        EXPECT_EQ(su::JsonValue(reparsed).dump(), emitted);
    }
    // Non-finite numbers have no JSON representation and must refuse to
    // serialize rather than emit garbage.
    EXPECT_THROW((void)su::JsonValue(std::numeric_limits<double>::infinity())
                     .dump(),
                 su::JsonError);
    EXPECT_THROW(
        (void)su::JsonValue(std::numeric_limits<double>::quiet_NaN()).dump(),
        su::JsonError);
}

TEST(Json, ObjectKeepsInsertionOrderAndSupportsLookup) {
    su::JsonValue o = su::JsonValue::object();
    o.set("z", 1);
    o.set("a", 2);
    o.set("z", 3);  // assign keeps the original slot
    EXPECT_EQ(o.size(), 2u);
    EXPECT_EQ(o.members()[0].first, "z");
    EXPECT_EQ(o.at("z").as_number(), 3.0);
    EXPECT_TRUE(o.contains("a"));
    EXPECT_FALSE(o.contains("b"));
    EXPECT_THROW((void)o.at("missing"), su::JsonError);
}

TEST(Json, NumbersAreLocaleIndependent) {
    // A comma-decimal locale must not leak into emission or parsing
    // (to_chars/from_chars ignore LC_NUMERIC; printf/strtod would not).
    const char* previous = std::setlocale(LC_NUMERIC, nullptr);
    const std::string saved = previous != nullptr ? previous : "C";
    if (std::setlocale(LC_NUMERIC, "de_DE.UTF-8") == nullptr)
        GTEST_SKIP() << "no comma-decimal locale installed";
    const su::JsonValue n(1.5);
    const std::string emitted = n.dump();
    const double parsed = su::JsonValue::parse("2.25").as_number();
    std::setlocale(LC_NUMERIC, saved.c_str());
    EXPECT_EQ(emitted, "1.5");
    EXPECT_EQ(parsed, 2.25);
}

TEST(Json, ParserRejectsMalformedDocuments) {
    EXPECT_THROW((void)su::JsonValue::parse(""), su::JsonError);
    EXPECT_THROW((void)su::JsonValue::parse("{\"a\":1"), su::JsonError);
    EXPECT_THROW((void)su::JsonValue::parse("[1,2] trailing"), su::JsonError);
    EXPECT_THROW((void)su::JsonValue::parse("\"unterminated"), su::JsonError);
    EXPECT_THROW((void)su::JsonValue::parse("1.2.3"), su::JsonError);
    EXPECT_THROW((void)su::JsonValue::parse("nul"), su::JsonError);
}

TEST(Json, ParserAcceptsNestingUpToTheLimit) {
    const std::size_t depth = su::kMaxJsonDepth;
    const su::JsonValue arrays = su::JsonValue::parse(
        std::string(depth, '[') + std::string(depth, ']'));
    EXPECT_TRUE(arrays.is_array());
    std::string objects;
    for (std::size_t i = 0; i < depth; ++i) objects += "{\"a\":";
    objects += "1" + std::string(depth, '}');
    EXPECT_TRUE(su::JsonValue::parse(objects).is_object());
}

TEST(Json, ParserRejectsNestingPastTheLimitAtTheOpeningByte) {
    // One level past the limit fails at the bracket that opens it, long
    // before a deep document could overflow the stack.
    const std::size_t depth = su::kMaxJsonDepth + 1;
    for (const std::string& text :
         {std::string(depth, '[') + std::string(depth, ']'),
          std::string(50000, '[')}) {
        try {
            (void)su::JsonValue::parse(text);
            FAIL() << "nesting past the limit must be rejected";
        } catch (const su::JsonError& error) {
            const std::string what = error.what();
            EXPECT_NE(what.find("byte 512: nesting deeper than 512"),
                      std::string::npos)
                << what;
        }
    }
}

TEST(Json, ParserRejectsARepeatedKeyNamingItAndItsByte) {
    try {
        (void)su::JsonValue::parse(
            "{\"a\": 1, \"b\": {\"a\": 2}, \"a\": 3}");
        FAIL() << "a repeated key must be rejected, not last-wins";
    } catch (const su::JsonError& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("byte 24: duplicate key \"a\""),
                  std::string::npos)
            << what;
    }
    EXPECT_THROW(
        (void)su::JsonValue::parse("{\"o\": {\"k\": 1, \"k\": 1}}"),
        su::JsonError);
}

TEST(Json, ParserTakesAWideObjectInOneOrderedPass) {
    // Duplicate detection must not rescan every earlier member: a
    // quadratic check takes over a minute on this object.
    constexpr std::size_t kKeys = 200000;
    std::string text = "{";
    for (std::size_t i = 0; i < kKeys; ++i) {
        if (i > 0) text += ", ";
        text += "\"k" + std::to_string(i) + "\": " + std::to_string(i);
    }
    const auto wide = su::JsonValue::parse(text + "}");
    ASSERT_EQ(wide.size(), kKeys);
    EXPECT_EQ(wide.members().front().first, "k0");
    EXPECT_EQ(wide.members()[kKeys / 2].first,
              "k" + std::to_string(kKeys / 2));
    EXPECT_EQ(wide.members().back().first, "k" + std::to_string(kKeys - 1));
    EXPECT_EQ(wide.at("k123456").as_number(), 123456.0);

    // A repeat is found however it is spelled, and named at its own byte.
    const std::size_t repeat_byte = text.size() + 2;
    try {
        (void)su::JsonValue::parse(text + ", \"\\u006b7\": 0}");
        FAIL() << "a repeated key must be rejected";
    } catch (const su::JsonError& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("byte " + std::to_string(repeat_byte) +
                            ": duplicate key \"k7\""),
                  std::string::npos)
            << what;
    }
}
