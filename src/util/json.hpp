// A small JSON value type with a writer and a strict parser — enough for
// socbuf's structured results (batch reports, tables, CLI output) without
// an external dependency. Design points:
//
//   * objects preserve insertion order, so emission is deterministic and
//     diffs of two reports line up key by key,
//   * numbers are doubles emitted with shortest round-trip precision via
//     std::to_chars/from_chars — locale-independent, so dump -> parse ->
//     dump is a fixed point under any LC_NUMERIC,
//   * the parser rejects trailing garbage, unterminated strings/containers,
//     malformed numbers, repeated object keys and nesting deeper than
//     kMaxJsonDepth with a JsonError naming the byte offset; an object of
//     k members parses in O(k log k), so a hostile file cannot stall it.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace socbuf::util {

/// The deepest container nesting JsonValue::parse accepts. The parser
/// recurses once per level, so a bound keeps a hostile file from
/// overflowing the stack; real documents nest a handful of levels.
inline constexpr std::size_t kMaxJsonDepth = 512;

class JsonError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

class JsonValue {
public:
    enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

    JsonValue() = default;  // null
    JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
    JsonValue(double v) : kind_(Kind::kNumber), number_(v) {}
    JsonValue(int v) : JsonValue(static_cast<double>(v)) {}
    JsonValue(long v) : JsonValue(static_cast<double>(v)) {}
    JsonValue(std::size_t v) : JsonValue(static_cast<double>(v)) {}
    JsonValue(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}
    JsonValue(const char* s) : JsonValue(std::string(s)) {}

    [[nodiscard]] static JsonValue array();
    [[nodiscard]] static JsonValue object();

    [[nodiscard]] Kind kind() const { return kind_; }
    [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
    [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }
    [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }

    /// Typed accessors; throw JsonError on a kind mismatch.
    [[nodiscard]] bool as_bool() const;
    [[nodiscard]] double as_number() const;
    [[nodiscard]] const std::string& as_string() const;

    /// Array/object element count (JsonError for scalars).
    [[nodiscard]] std::size_t size() const;

    /// Array: append an element (JsonError unless array).
    void push_back(JsonValue value);
    /// Array: element access with bounds checking.
    [[nodiscard]] const JsonValue& at(std::size_t index) const;

    /// Object: insert-or-assign keeping first-insertion order; true when
    /// `key` was new, false when it replaced an existing member.
    bool set(const std::string& key, JsonValue value);
    [[nodiscard]] bool contains(const std::string& key) const;
    /// Object: member access; JsonError when the key is absent.
    [[nodiscard]] const JsonValue& at(const std::string& key) const;
    [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>&
    members() const;

    /// Serialize. indent < 0: compact one-liner; otherwise pretty-printed
    /// with `indent` spaces per level.
    [[nodiscard]] std::string dump(int indent = -1) const;

    /// Strict parse of a complete JSON document (throws JsonError, also
    /// for a repeated object key or nesting past kMaxJsonDepth).
    [[nodiscard]] static JsonValue parse(const std::string& text);

    friend bool operator==(const JsonValue& a, const JsonValue& b);
    friend bool operator!=(const JsonValue& a, const JsonValue& b) {
        return !(a == b);
    }

private:
    class Parser;  // json.cpp; appends parsed members directly
    void write(std::string& out, int indent, int depth) const;

    Kind kind_ = Kind::kNull;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> array_;
    std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Escape `s` per RFC 8259 and wrap it in double quotes.
[[nodiscard]] std::string json_quote(const std::string& s);

}  // namespace socbuf::util
