#ifndef WHITENREC_CORE_JSON_H_
#define WHITENREC_CORE_JSON_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"

namespace whitenrec {
namespace core {

// The one module that knows the JSON text format: a writer (Json) that
// every JSON document in the tree is built with — the BENCH_*.json reports,
// BENCH_kernels.json, BENCH_efficiency.json, ANALYZE.json — and the reader
// (ParseJson) that checks them on the way back. They agree on every string:
// the writer escapes '"', '\\', '\n', '\t' and the other bytes below 0x20
// (as \u00XX); the reader decodes exactly those escapes plus the rest of
// JSON's single-character set, and \u0000-\u007f. No dependencies.

// A JSON value under construction: string, number, bool, object or array.
// Build with the static factories, compose with Set()/Push(), render with
// Dump(). Object members keep insertion order.
class Json {
 public:
  static Json Str(const std::string& s);
  // %.17g: every double round-trips. A non-finite value renders as text
  // ParseJson rejects, so an artifact carrying one fails its read-back.
  static Json Num(double v);
  static Json Int(long long v);
  static Json Uint(unsigned long long v);
  static Json Bool(bool v);
  static Json Obj();
  static Json Arr();

  Json& Set(const std::string& key, Json value);
  Json& Push(Json value);

  // Two-space indented text, one member or element per line; `indent` is
  // the column the value starts at.
  std::string Dump(int indent = 0) const;

 private:
  enum class Shape { kScalar, kObject, kArray };
  Json(Shape shape, std::string rendered);

  Shape shape_;
  std::string rendered_;  // scalar leaf
  std::vector<std::pair<std::string, Json>> members_;
};

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
// truncated or concatenated artifact fails loudly, rejects arrays/objects
// nested more than 256 deep (InvalidArgument) so hostile input cannot
// exhaust the stack, and rejects an unknown escape or a \u escape outside
// \u0000-\u007f instead of guessing. It is strict where a lax reader would
// keep going: a number outside RFC 8259's grammar ("+1", "01", ".5", "1.")
// or too large for a double, a raw byte below 0x20 inside a string, and a
// duplicate object key are each InvalidArgument.
Status ParseJson(const std::string& text, JsonValue* out);

}  // namespace core
}  // namespace whitenrec

#endif  // WHITENREC_CORE_JSON_H_
