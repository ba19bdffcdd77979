#ifndef WHITENREC_CORE_JSON_H_
#define WHITENREC_CORE_JSON_H_

#include <map>
#include <string>
#include <vector>

#include "core/status.h"

namespace whitenrec {
namespace core {

// Minimal JSON reader shared by the bench-artifact schema validators
// (serve/harness.cc for BENCH_serving.json, retrieval/ann_report.cc for
// BENCH_ann.json). Full tokenizer, no external dependencies; only the
// subset the bench writers emit (objects, arrays, strings, numbers,
// booleans, null; \uXXXX escapes are out of scope).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;
};

// Parses `text` into *out. Rejects trailing bytes after the document so a
// truncated or concatenated artifact fails loudly, and rejects arrays/objects
// nested more than 256 deep (InvalidArgument) so hostile input cannot
// exhaust the stack.
Status ParseJson(const std::string& text, JsonValue* out);

// Schema helper: requires obj[key] to exist and be a number; writes it to
// *out when out is non-null.
Status RequireJsonNumber(const JsonValue& obj, const char* key, double* out);

}  // namespace core
}  // namespace whitenrec

#endif  // WHITENREC_CORE_JSON_H_
