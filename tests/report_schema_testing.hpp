#pragma once
// Shared fixtures for the report-schema tests (telemetry report, service
// report, cycle catalog): text mutations applied to a valid literal
// document, and a whitespace-blind canonical digest of emitted JSON.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "telemetry/json.hpp"
#include "util/md5.hpp"

namespace awp::schema_test {

// Replace the first occurrence of `find` in a document with `replace`.
struct Mutation {
  std::string find;
  std::string replace;
};

// The rows that break one numeric member `"key": value`: the key removed
// (renamed), the wrong type, infinite (1e999 parses to inf) and, for a
// non-negative member, negative.
inline void addNumberRows(std::vector<Mutation>& rows, const std::string& key,
                          const std::string& value, bool nonNegative) {
  const std::string member = "\"" + key + "\": " + value;
  rows.push_back({member, "\"" + key + "_absent\": " + value});
  rows.push_back({member, "\"" + key + "\": \"" + value + "\""});
  rows.push_back({member, "\"" + key + "\": 1e999"});
  if (nonNegative) rows.push_back({member, "\"" + key + "\": -1"});
}

// The base document must validate cleanly; every mutation of it must be
// flagged. A row whose `find` is absent from the base is itself an error.
inline void expectMutationsFlagged(
    const std::string& base, const std::vector<Mutation>& rows,
    const std::function<std::vector<std::string>(const std::string&)>&
        validate) {
  const auto clean = validate(base);
  EXPECT_TRUE(clean.empty()) << "base document flagged: " << clean.front();
  for (const Mutation& m : rows) {
    const std::size_t at = base.find(m.find);
    ASSERT_NE(at, std::string::npos) << "row target absent: " << m.find;
    std::string doc = base;
    doc.replace(at, m.find.size(), m.replace);
    EXPECT_FALSE(validate(doc).empty())
        << "mutation not flagged: " << m.find << " -> " << m.replace;
  }
}

// One "path=value" line per node in document order, numbers as %.17g:
// blind to whitespace, exact about keys, order and values.
inline void canonicalDump(const telemetry::JsonValue& v,
                          const std::string& path, std::string& out) {
  using Kind = telemetry::JsonValue::Kind;
  switch (v.kind) {
    case Kind::Object:
      out += path + "=object\n";
      for (const auto& [key, member] : v.members)
        canonicalDump(member, path + "." + key, out);
      break;
    case Kind::Array:
      out += path + "=array\n";
      for (std::size_t i = 0; i < v.items.size(); ++i)
        canonicalDump(v.items[i], path + "[" + std::to_string(i) + "]", out);
      break;
    case Kind::Number: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", v.number);
      out += path + "=" + buf + "\n";
      break;
    }
    case Kind::String: out += path + "=\"" + v.text + "\"\n"; break;
    case Kind::Bool: out += path + (v.boolean ? "=true\n" : "=false\n"); break;
    case Kind::Null: out += path + "=null\n"; break;
  }
}

inline std::string canonicalDigest(const std::string& json) {
  std::string dump;
  canonicalDump(telemetry::parseJson(json), "$", dump);
  return Md5::hexDigest(dump.data(), dump.size());
}

}  // namespace awp::schema_test
