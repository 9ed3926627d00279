#pragma once
// The one report layer: every JSON report the repository emits (telemetry
// report, service report, cycle catalog, BENCH_*.json trajectories) is
// written through JsonWriter and writeTextAtomically, and every report
// validator is a SchemaCheck over {key, kind} rule tables plus its own
// cross-field invariants.
//
// The parser accepts exactly RFC 8259's grammar: objects, arrays, strings
// (with the standard escapes and BMP \uXXXX), numbers, true/false/null; no
// comments, no trailing commas. Nesting is bounded (kMaxJsonDepth) so a
// hostile file on disk cannot exhaust the stack.

#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace awp::telemetry {

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<JsonValue> items;                            // Array
  std::vector<std::pair<std::string, JsonValue>> members;  // Object

  // Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  [[nodiscard]] bool isNumber() const { return kind == Kind::Number; }
  [[nodiscard]] bool isString() const { return kind == Kind::String; }
  [[nodiscard]] bool isArray() const { return kind == Kind::Array; }
  [[nodiscard]] bool isObject() const { return kind == Kind::Object; }
};

// Arrays and objects nested deeper than this are rejected by parseJson.
inline constexpr int kMaxJsonDepth = 64;

// Parse a complete JSON document; throws awp::Error (with the byte offset)
// on malformed input, trailing garbage or nesting past kMaxJsonDepth.
JsonValue parseJson(const std::string& text);

// Escape a string for embedding in a JSON document (without quotes).
std::string escapeJson(std::string_view s);

// Streaming JSON writer. Commas are placed automatically; the layout rule
// is that objects and arrays at nesting depth 1 and 2 put each member on
// its own indented line, deeper ones stay on one line. Doubles render as
// %.17g (round-trip exact), integers exactly, strings via escapeJson.
class JsonWriter {
 public:
  JsonWriter& beginObject() { return open('{'); }
  JsonWriter& endObject() { return close('}'); }
  JsonWriter& beginArray() { return open('['); }
  JsonWriter& endArray() { return close(']'); }
  JsonWriter& key(std::string_view name);

  JsonWriter& value(double v);
  JsonWriter& value(bool v);
  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  template <class T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  JsonWriter& value(T v) {
    return raw(std::to_string(v));
  }

  template <class T>
  JsonWriter& field(std::string_view name, const T& v) {
    return key(name).value(v);
  }

  // The finished document, newline-terminated; every container must be
  // closed.
  [[nodiscard]] std::string str() const;

 private:
  JsonWriter& open(char bracket);
  JsonWriter& close(char bracket);
  JsonWriter& raw(const std::string& token);
  void separate();  // comma and line break/space before the next member
  [[nodiscard]] bool multiline() const { return open_.size() <= 2; }

  std::string out_;
  std::vector<bool> open_;  // per open container: has a member yet
  bool afterKey_ = false;
};

// Write `text` to `path` atomically: a sibling .tmp file, flushed and
// checked, then renamed over the target. Creates parent directories.
void writeTextAtomically(const std::string& path, const std::string& text);

// --- schema checking ---------------------------------------------------------

enum class FieldKind {
  Finite,       // a finite number
  NonNegative,  // a finite number >= 0
  String,
  Bool,
  Hex32,  // a 32-character lowercase hex digest
  OneOf,  // a string from FieldRule::choices
  Object,
  Array,
};

struct FieldRule {
  std::string_view key;
  FieldKind kind;
  std::span<const std::string_view> choices = {};  // OneOf only
};

// One validation pass over a report: the constructor parses the text and
// checks the "schema" id, the "version" and the root object's rules; the
// validator then applies nested rule tables with fields() and its
// cross-field invariants with require(). violations() is empty for a valid
// document.
class SchemaCheck {
 public:
  SchemaCheck(const std::string& text, std::string_view schema, int version,
              std::span<const FieldRule> rootFields);

  // The parsed root object; nullptr when the text did not parse or is not
  // an object (one violation says which).
  [[nodiscard]] const JsonValue* root() const {
    return isObject_ ? &doc_ : nullptr;
  }

  // Check `rules` against `obj`, naming violations after `context`.
  void fields(const JsonValue& obj, const std::string& context,
              std::span<const FieldRule> rules);

  // Record `message` unless `cond` holds; returns `cond`.
  bool require(bool cond, const std::string& message);

  [[nodiscard]] const std::vector<std::string>& violations() const {
    return violations_;
  }

 private:
  JsonValue doc_;
  bool isObject_ = false;
  std::vector<std::string> violations_;
};

// Member accessors for cross-field invariants: nullptr / NaN / "" when
// `key` is absent or holds another kind (its rule already reported that).
const JsonValue* memberOf(const JsonValue& obj, std::string_view key,
                          JsonValue::Kind kind);
double numberOf(const JsonValue& obj, std::string_view key);
std::string_view textOf(const JsonValue& obj, std::string_view key);

bool isHex32(std::string_view s);

}  // namespace awp::telemetry
