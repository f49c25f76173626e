#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace socbuf::util {

JsonValue JsonValue::array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
}

JsonValue JsonValue::object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
}

namespace {

[[noreturn]] void kind_error(const char* wanted) {
    throw JsonError(std::string("json: value is not ") + wanted);
}

}  // namespace

bool JsonValue::as_bool() const {
    if (kind_ != Kind::kBool) kind_error("a bool");
    return bool_;
}

double JsonValue::as_number() const {
    if (kind_ != Kind::kNumber) kind_error("a number");
    return number_;
}

const std::string& JsonValue::as_string() const {
    if (kind_ != Kind::kString) kind_error("a string");
    return string_;
}

std::size_t JsonValue::size() const {
    if (kind_ == Kind::kArray) return array_.size();
    if (kind_ == Kind::kObject) return object_.size();
    kind_error("a container");
}

void JsonValue::push_back(JsonValue value) {
    if (kind_ != Kind::kArray) kind_error("an array");
    array_.push_back(std::move(value));
}

const JsonValue& JsonValue::at(std::size_t index) const {
    if (kind_ != Kind::kArray) kind_error("an array");
    if (index >= array_.size()) throw JsonError("json: index out of range");
    return array_[index];
}

bool JsonValue::set(const std::string& key, JsonValue value) {
    if (kind_ != Kind::kObject) kind_error("an object");
    for (auto& member : object_) {
        if (member.first == key) {
            member.second = std::move(value);
            return false;
        }
    }
    object_.emplace_back(key, std::move(value));
    return true;
}

bool JsonValue::contains(const std::string& key) const {
    if (kind_ != Kind::kObject) kind_error("an object");
    for (const auto& member : object_)
        if (member.first == key) return true;
    return false;
}

const JsonValue& JsonValue::at(const std::string& key) const {
    if (kind_ != Kind::kObject) kind_error("an object");
    for (const auto& member : object_)
        if (member.first == key) return member.second;
    throw JsonError("json: no member named \"" + key + "\"");
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
    if (kind_ != Kind::kObject) kind_error("an object");
    return object_;
}

std::string json_quote(const std::string& s) {
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (const char raw : s) {
        const auto c = static_cast<unsigned char>(raw);
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (c < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out.push_back(raw);
                }
        }
    }
    out.push_back('"');
    return out;
}

namespace {

/// Shortest decimal form that parses back to the same double.
/// std::to_chars is locale-independent (printf/strtod honor LC_NUMERIC
/// and would emit "3,14" under e.g. de_DE — invalid JSON).
std::string format_number(double v) {
    if (!std::isfinite(v))
        throw JsonError("json: cannot emit a non-finite number");
    char buf[32];
    const auto result = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, result.ptr);
}

}  // namespace

void JsonValue::write(std::string& out, int indent, int depth) const {
    const bool pretty = indent >= 0;
    const auto newline_pad = [&](int levels) {
        if (!pretty) return;
        out.push_back('\n');
        out.append(static_cast<std::size_t>(indent * levels), ' ');
    };
    switch (kind_) {
        case Kind::kNull: out += "null"; break;
        case Kind::kBool: out += bool_ ? "true" : "false"; break;
        case Kind::kNumber: out += format_number(number_); break;
        case Kind::kString: out += json_quote(string_); break;
        case Kind::kArray: {
            if (array_.empty()) {
                out += "[]";
                break;
            }
            out.push_back('[');
            for (std::size_t i = 0; i < array_.size(); ++i) {
                if (i > 0) out.push_back(',');
                newline_pad(depth + 1);
                array_[i].write(out, indent, depth + 1);
            }
            newline_pad(depth);
            out.push_back(']');
            break;
        }
        case Kind::kObject: {
            if (object_.empty()) {
                out += "{}";
                break;
            }
            out.push_back('{');
            for (std::size_t i = 0; i < object_.size(); ++i) {
                if (i > 0) out.push_back(',');
                newline_pad(depth + 1);
                out += json_quote(object_[i].first);
                out.push_back(':');
                if (pretty) out.push_back(' ');
                object_[i].second.write(out, indent, depth + 1);
            }
            newline_pad(depth);
            out.push_back('}');
            break;
        }
    }
}

std::string JsonValue::dump(int indent) const {
    std::string out;
    write(out, indent, 0);
    return out;
}

bool operator==(const JsonValue& a, const JsonValue& b) {
    if (a.kind_ != b.kind_) return false;
    switch (a.kind_) {
        case JsonValue::Kind::kNull: return true;
        case JsonValue::Kind::kBool: return a.bool_ == b.bool_;
        case JsonValue::Kind::kNumber: return a.number_ == b.number_;
        case JsonValue::Kind::kString: return a.string_ == b.string_;
        case JsonValue::Kind::kArray: return a.array_ == b.array_;
        case JsonValue::Kind::kObject: return a.object_ == b.object_;
    }
    return false;
}

namespace {

class Parser {
public:
    explicit Parser(const std::string& text) : text_(text) {}

    JsonValue run() {
        JsonValue v = value();
        skip_whitespace();
        if (pos_ != text_.size()) fail("trailing characters after document");
        return v;
    }

private:
    [[noreturn]] void fail(const std::string& what) const {
        throw JsonError("json parse error at byte " + std::to_string(pos_) +
                        ": " + what);
    }

    void skip_whitespace() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char peek() {
        if (pos_ >= text_.size()) fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char c) {
        if (peek() != c) fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool consume_literal(const char* literal) {
        const std::size_t len = std::char_traits<char>::length(literal);
        if (text_.compare(pos_, len, literal) != 0) return false;
        pos_ += len;
        return true;
    }

    JsonValue value() {
        skip_whitespace();
        const char c = peek();
        switch (c) {
            case '{':
            case '[': {
                // Past kMaxJsonDepth the parse fails at the opening
                // bracket instead of recursing off the stack.
                if (depth_ == kMaxJsonDepth)
                    fail("nesting deeper than " +
                         std::to_string(kMaxJsonDepth) + " levels");
                ++depth_;
                JsonValue out = c == '{' ? object() : array();
                --depth_;
                return out;
            }
            case '"': return JsonValue(string());
            case 't':
                if (!consume_literal("true")) fail("bad literal");
                return JsonValue(true);
            case 'f':
                if (!consume_literal("false")) fail("bad literal");
                return JsonValue(false);
            case 'n':
                if (!consume_literal("null")) fail("bad literal");
                return JsonValue();
            default: return number();
        }
    }

    JsonValue object() {
        expect('{');
        JsonValue out = JsonValue::object();
        skip_whitespace();
        if (peek() == '}') {
            ++pos_;
            return out;
        }
        for (;;) {
            skip_whitespace();
            const std::size_t key_pos = pos_;
            std::string key = string();
            skip_whitespace();
            expect(':');
            if (!out.set(key, value())) {
                pos_ = key_pos;
                fail("duplicate key " + json_quote(key));
            }
            skip_whitespace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return out;
        }
    }

    JsonValue array() {
        expect('[');
        JsonValue out = JsonValue::array();
        skip_whitespace();
        if (peek() == ']') {
            ++pos_;
            return out;
        }
        for (;;) {
            out.push_back(value());
            skip_whitespace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return out;
        }
    }

    std::string string() {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size()) fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"') return out;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size()) fail("unterminated escape");
            const char e = text_[pos_++];
            switch (e) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case '/': out.push_back('/'); break;
                case 'b': out.push_back('\b'); break;
                case 'f': out.push_back('\f'); break;
                case 'n': out.push_back('\n'); break;
                case 'r': out.push_back('\r'); break;
                case 't': out.push_back('\t'); break;
                case 'u': {
                    if (pos_ + 4 > text_.size()) fail("short \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9') code |= h - '0';
                        else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
                        else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
                        else fail("bad hex digit in \\u escape");
                    }
                    // Encode the code point as UTF-8 (socbuf only ever
                    // emits \u00XX controls; surrogates are not combined).
                    if (code < 0x80) {
                        out.push_back(static_cast<char>(code));
                    } else if (code < 0x800) {
                        out.push_back(static_cast<char>(0xC0 | (code >> 6)));
                        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
                    } else {
                        out.push_back(static_cast<char>(0xE0 | (code >> 12)));
                        out.push_back(
                            static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
                        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
                    }
                    break;
                }
                default: fail("unknown escape");
            }
        }
    }

    JsonValue number() {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start) fail("expected a value");
        const std::string token = text_.substr(start, pos_ - start);
        double v = 0.0;
        // Locale-independent counterpart of to_chars in format_number.
        const auto result =
            std::from_chars(token.data(), token.data() + token.size(), v);
        if (result.ec != std::errc{} ||
            result.ptr != token.data() + token.size()) {
            pos_ = start;
            fail("malformed number '" + token + "'");
        }
        return JsonValue(v);
    }

    const std::string& text_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0;  // containers open around pos_
};

}  // namespace

JsonValue JsonValue::parse(const std::string& text) {
    return Parser(text).run();
}

}  // namespace socbuf::util
