#include "telemetry/json.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>

#include "util/error.hpp"

namespace awp::telemetry {

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [k, v] : members)
    if (k == key) return &v;
  return nullptr;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue document() {
    JsonValue v = value();
    skipWs();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("json: " + what + " at byte " + std::to_string(pos_));
  }

  void skipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consumeIf(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void literal(std::string_view word) {
    if (text_.compare(pos_, word.size(), word) != 0)
      fail("invalid literal");
    pos_ += word.size();
  }

  JsonValue value() {
    skipWs();
    switch (peek()) {
      case '{':
      case '[': {
        if (++depth_ > kMaxJsonDepth)
          fail("nesting deeper than " + std::to_string(kMaxJsonDepth));
        JsonValue v = peek() == '{' ? object() : array();
        --depth_;
        return v;
      }
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        v.text = string();
        return v;
      }
      case 't': {
        literal("true");
        JsonValue v;
        v.kind = JsonValue::Kind::Bool;
        v.boolean = true;
        return v;
      }
      case 'f': {
        literal("false");
        JsonValue v;
        v.kind = JsonValue::Kind::Bool;
        v.boolean = false;
        return v;
      }
      case 'n': {
        literal("null");
        return JsonValue{};
      }
      default: return number();
    }
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::Object;
    skipWs();
    if (consumeIf('}')) return v;
    while (true) {
      skipWs();
      std::string key = string();
      skipWs();
      expect(':');
      v.members.emplace_back(std::move(key), value());
      skipWs();
      if (consumeIf(',')) continue;
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::Array;
    skipWs();
    if (consumeIf(']')) return v;
    while (true) {
      v.items.push_back(value());
      skipWs();
      if (consumeIf(',')) continue;
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("unescaped control character in string");
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
        case 'u': out += unicodeEscape(); break;
        default: fail("invalid escape");
      }
    }
  }

  std::string unicodeEscape() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned cp = 0;
    for (int n = 0; n < 4; ++n) {
      const char c = text_[pos_++];
      cp <<= 4;
      if (c >= '0' && c <= '9') cp |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') cp |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') cp |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid hex digit in \\u escape");
    }
    // BMP only; encode as UTF-8. (Surrogate pairs never appear in the
    // identifiers and paths the report emits.)
    std::string out;
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
    return out;
  }

  // RFC 8259: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
  JsonValue number() {
    const std::size_t start = pos_;
    consumeIf('-');
    if (!consumeIf('0') && !digits()) fail("expected a value");
    if (consumeIf('.') && !digits()) fail("malformed number");
    if (consumeIf('e') || consumeIf('E')) {
      if (!consumeIf('+')) consumeIf('-');
      if (!digits()) fail("malformed number");
    }
    JsonValue v;
    v.kind = JsonValue::Kind::Number;
    v.number = std::strtod(text_.substr(start, pos_ - start).c_str(), nullptr);
    return v;
  }

  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0)
      ++pos_;
    return pos_ > start;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

JsonValue parseJson(const std::string& text) { return Parser(text).document(); }

std::string escapeJson(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out.push_back(kHex[(static_cast<unsigned char>(c) >> 4) & 0xF]);
          out.push_back(kHex[static_cast<unsigned char>(c) & 0xF]);
        } else {
          out.push_back(c);
        }
        break;
    }
  }
  return out;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  separate();
  out_ += '"' + escapeJson(name) + "\": ";
  afterKey_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return raw(buf);
}

JsonWriter& JsonWriter::value(bool v) { return raw(v ? "true" : "false"); }

JsonWriter& JsonWriter::value(std::string_view v) {
  return raw('"' + escapeJson(v) + '"');
}

JsonWriter& JsonWriter::raw(const std::string& token) {
  separate();
  out_ += token;
  return *this;
}

void JsonWriter::separate() {
  if (afterKey_) {  // the value of a key just written
    afterKey_ = false;
    return;
  }
  if (open_.empty()) return;  // the document's root value
  if (open_.back()) out_ += ',';
  if (multiline()) out_ += '\n' + std::string(2 * open_.size(), ' ');
  else if (open_.back()) out_ += ' ';
  open_.back() = true;
}

JsonWriter& JsonWriter::open(char bracket) {
  separate();
  out_ += bracket;
  open_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
  AWP_CHECK_MSG(!open_.empty() && !afterKey_, "json: unbalanced writer");
  const bool hadMembers = open_.back();
  const bool wasMultiline = multiline();
  open_.pop_back();
  if (hadMembers && wasMultiline)
    out_ += '\n' + std::string(2 * open_.size(), ' ');
  out_ += bracket;
  return *this;
}

std::string JsonWriter::str() const {
  AWP_CHECK_MSG(open_.empty() && !out_.empty(), "json: unfinished document");
  return out_ + '\n';
}

void writeTextAtomically(const std::string& path, const std::string& text) {
  namespace fs = std::filesystem;
  const fs::path target(path);
  if (target.has_parent_path()) fs::create_directories(target.parent_path());
  const fs::path tmp = target.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw Error("cannot open " + tmp.string());
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    out.flush();
    if (!out) throw Error("short write to " + tmp.string());
  }
  fs::rename(tmp, target);
}

// --- schema checking ---------------------------------------------------------

namespace {

bool matches(const JsonValue* v, const FieldRule& rule) {
  if (v == nullptr) return false;
  switch (rule.kind) {
    case FieldKind::Finite: return v->isNumber() && std::isfinite(v->number);
    case FieldKind::NonNegative:
      return v->isNumber() && std::isfinite(v->number) && v->number >= 0.0;
    case FieldKind::String: return v->isString();
    case FieldKind::Bool: return v->kind == JsonValue::Kind::Bool;
    case FieldKind::Hex32: return v->isString() && isHex32(v->text);
    case FieldKind::OneOf:
      return v->isString() && std::find(rule.choices.begin(),
                                        rule.choices.end(),
                                        v->text) != rule.choices.end();
    case FieldKind::Object: return v->isObject();
    case FieldKind::Array: return v->isArray();
  }
  return false;
}

}  // namespace

SchemaCheck::SchemaCheck(const std::string& text, std::string_view schema,
                         int version, std::span<const FieldRule> rootFields) {
  try {
    doc_ = parseJson(text);
  } catch (const Error& e) {
    violations_.push_back(std::string("parse error: ") + e.what());
    return;
  }
  isObject_ = require(doc_.isObject(), "document is not an object");
  if (!isObject_) return;
  require(textOf(doc_, "schema") == schema,
          "schema is not \"" + std::string(schema) + "\"");
  require(numberOf(doc_, "version") == version,
          "version is not " + std::to_string(version));
  fields(doc_, std::string(schema), rootFields);
}

void SchemaCheck::fields(const JsonValue& obj, const std::string& context,
                         std::span<const FieldRule> rules) {
  static constexpr const char* kExpected[] = {
      "a finite number", "a finite number >= 0", "a string", "a boolean",
      "a 32-hex digest", "one of the known names", "an object", "an array"};
  static_assert(std::size(kExpected) ==
                static_cast<std::size_t>(FieldKind::Array) + 1);
  for (const FieldRule& rule : rules)
    if (!matches(obj.find(rule.key), rule))
      violations_.push_back(context + ": field '" + std::string(rule.key) +
                            "' is missing or not " +
                            kExpected[static_cast<int>(rule.kind)]);
}

bool SchemaCheck::require(bool cond, const std::string& message) {
  if (!cond) violations_.push_back(message);
  return cond;
}

const JsonValue* memberOf(const JsonValue& obj, std::string_view key,
                          JsonValue::Kind kind) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->kind == kind ? v : nullptr;
}

double numberOf(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = memberOf(obj, key, JsonValue::Kind::Number);
  return v != nullptr ? v->number : std::numeric_limits<double>::quiet_NaN();
}

std::string_view textOf(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = memberOf(obj, key, JsonValue::Kind::String);
  return v != nullptr ? std::string_view(v->text) : std::string_view();
}

bool isHex32(std::string_view s) {
  return s.size() == 32 &&
         std::all_of(s.begin(), s.end(), [](char c) {
           return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
         });
}

}  // namespace awp::telemetry
