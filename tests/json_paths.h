#ifndef WHITENREC_TESTS_JSON_PATHS_H_
#define WHITENREC_TESTS_JSON_PATHS_H_

#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/json.h"

namespace whitenrec {

// The shape of a JSON document as a set of "<path>:<kind>" tokens: "$" is
// the root, ".key" steps into an object member and "[]" into any array
// element. Two documents with the same set carry the same keys with the
// same JSON kinds, whatever their values — what a reader of a BENCH_*.json
// artifact depends on.
inline void CollectJsonPaths(const core::JsonValue& v, const std::string& path,
                             std::set<std::string>* out) {
  static const char* const kKinds[] = {"null",   "bool",  "number",
                                       "string", "array", "object"};
  out->insert(path + ":" + kKinds[static_cast<int>(v.kind)]);
  for (const auto& [key, child] : v.object) {
    CollectJsonPaths(child, path + "." + key, out);
  }
  for (const core::JsonValue& child : v.array) {
    CollectJsonPaths(child, path + "[]", out);
  }
}

inline std::set<std::string> JsonPaths(const std::string& text) {
  core::JsonValue doc;
  const Status parsed = core::ParseJson(text, &doc);
  EXPECT_TRUE(parsed.ok()) << parsed.message();
  std::set<std::string> paths;
  CollectJsonPaths(doc, "$", &paths);
  return paths;
}

// The whitespace-separated tokens of `spaced`: how a test spells an
// expected JsonPaths set.
inline std::set<std::string> PathSet(const std::string& spaced) {
  std::istringstream in(spaced);
  std::set<std::string> out;
  for (std::string token; in >> token;) out.insert(token);
  return out;
}

}  // namespace whitenrec

#endif  // WHITENREC_TESTS_JSON_PATHS_H_
