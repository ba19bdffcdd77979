#include "core/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "core/check.h"

namespace whitenrec {
namespace core {
namespace {

// Arrays and objects parse recursively, so nesting depth is stack depth:
// without a cap, a few hundred KB of '[' overflow the stack. Every document
// this tree writes nests a handful of levels; anything past the cap is
// rejected as InvalidArgument.
constexpr std::size_t kMaxJsonDepth = 256;

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  Status Parse(JsonValue* out) {
    *out = JsonValue();  // a reused value must not keep an earlier document
    Status s = ParseValue(out);
    if (!s.ok()) return s;
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument("trailing bytes after JSON document");
    }
    return Status::OK();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  Status Fail(const char* what) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "JSON parse error at byte %zu: %s", pos_,
                  what);
    return Status::InvalidArgument(buf);
  }

  Status ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ == kMaxJsonDepth) return Fail("nesting too deep");
      ++depth_;
      Status s = c == '{' ? ParseObject(out) : ParseArray(out);
      --depth_;
      return s;
    }
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->str);
    }
    if (Consume("true")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return Status::OK();
    }
    if (Consume("false")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      return Status::OK();
    }
    if (Consume("null")) {
      out->kind = JsonValue::Kind::kNull;
      return Status::OK();
    }
    return ParseNumber(out);
  }

  bool Consume(const char* word) {
    const std::size_t len = std::char_traits<char>::length(word);
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  Status ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (static_cast<unsigned char>(text_[pos_]) < 0x20) {
        return Fail("raw control byte in string");
      }
      if (text_[pos_] != '\\') {
        out->push_back(text_[pos_++]);
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) return Fail("bad escape");
      const char e = text_[pos_++];
      // JSON's single-character escapes, then \u0000-\u007f: one byte per
      // escape, the range Quote emits in.
      static const char kEscaped[] = "\"\\/bfnrt";
      static const char kDecoded[] = "\"\\/\b\f\n\r\t";
      const char* hit = e == '\0' ? nullptr : std::strchr(kEscaped, e);
      if (hit != nullptr) {
        out->push_back(kDecoded[hit - kEscaped]);
        continue;
      }
      if (e != 'u') return Fail("bad escape");
      if (text_.size() - pos_ < 4) return Fail("truncated \\u escape");
      unsigned code = 0;
      for (int i = 0; i < 4; ++i) {
        const int digit = HexDigit(text_[pos_++]);
        if (digit < 0) return Fail("bad hex digit in \\u escape");
        code = code * 16 + static_cast<unsigned>(digit);
      }
      if (code > 0x7f) return Fail("\\u escape above \\u007f");
      out->push_back(static_cast<char>(code));
    }
    if (pos_ >= text_.size()) return Fail("unterminated string");
    ++pos_;  // closing quote
    return Status::OK();
  }

  bool At(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

  // Consumes a run of decimal digits and returns its length.
  std::size_t Digits() {
    const std::size_t from = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return pos_ - from;
  }

  // RFC 8259's number grammar, exactly:
  //   -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
  // so "+1", "01", ".5" and "1." are refused, as is a number too large for a
  // double (it would read back as inf, which no artifact can hold).
  Status ParseNumber(JsonValue* out) {
    const std::size_t start = pos_;
    if (At('-')) ++pos_;
    const std::size_t int_start = pos_;
    const std::size_t int_digits = Digits();
    if (int_digits == 0) {
      return Fail(pos_ == start ? "expected a value" : "malformed number");
    }
    if (int_digits > 1 && text_[int_start] == '0') {
      return Fail("leading zero in number");
    }
    if (At('.')) {
      ++pos_;
      if (Digits() == 0) return Fail("malformed number");
    }
    if (At('e') || At('E')) {
      ++pos_;
      if (At('+') || At('-')) ++pos_;
      if (Digits() == 0) return Fail("malformed number");
    }
    const std::string token = text_.substr(start, pos_ - start);
    out->number = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(out->number)) return Fail("number out of range");
    out->kind = JsonValue::Kind::kNumber;
    return Status::OK();
  }

  Status ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      std::string key;
      Status s = ParseString(&key);
      if (!s.ok()) return s;
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') return Fail("expected :");
      ++pos_;
      JsonValue value;
      s = ParseValue(&value);
      if (!s.ok()) return s;
      if (!out->object.emplace(std::move(key), std::move(value)).second) {
        return Fail("duplicate object key");
      }
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return Status::OK();
      }
      return Fail("expected , or } in object");
    }
  }

  Status ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      JsonValue value;
      Status s = ParseValue(&value);
      if (!s.ok()) return s;
      out->array.push_back(std::move(value));
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return Status::OK();
      }
      return Fail("expected , or ] in array");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // open arrays/objects around pos_
};

}  // namespace

Status ParseJson(const std::string& text, JsonValue* out) {
  return JsonReader(text).Parse(out);
}

Json::Json(Shape shape, std::string rendered)
    : shape_(shape), rendered_(std::move(rendered)) {}

Json Json::Str(const std::string& s) { return Json(Shape::kScalar, Quote(s)); }

Json Json::Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return Json(Shape::kScalar, buf);
}

Json Json::Int(long long v) { return Json(Shape::kScalar, std::to_string(v)); }

Json Json::Uint(unsigned long long v) {
  return Json(Shape::kScalar, std::to_string(v));
}

Json Json::Bool(bool v) { return Json(Shape::kScalar, v ? "true" : "false"); }

Json Json::Obj() { return Json(Shape::kObject, ""); }

Json Json::Arr() { return Json(Shape::kArray, ""); }

Json& Json::Set(const std::string& key, Json value) {
  WR_CHECK(shape_ == Shape::kObject);
  members_.emplace_back(key, std::move(value));
  return *this;
}

Json& Json::Push(Json value) {
  WR_CHECK(shape_ == Shape::kArray);
  members_.emplace_back(std::string(), std::move(value));
  return *this;
}

std::string Json::Dump(int indent) const {
  if (shape_ == Shape::kScalar) return rendered_;
  const bool is_obj = shape_ == Shape::kObject;
  const std::string pad(static_cast<std::size_t>(indent) + 2, ' ');
  std::string s(1, is_obj ? '{' : '[');
  for (std::size_t i = 0; i < members_.size(); ++i) {
    s += i == 0 ? "\n" : ",\n";
    s += pad;
    if (is_obj) s += Quote(members_[i].first) + ": ";
    s += members_[i].second.Dump(indent + 2);
  }
  if (!members_.empty()) {
    // Two appends, not `"\n" + string(...)`: GCC 12's -Wrestrict
    // false-positives on operator+(const char*, string&&).
    s += '\n';
    s.append(static_cast<std::size_t>(indent), ' ');
  }
  s += is_obj ? '}' : ']';
  return s;
}

}  // namespace core
}  // namespace whitenrec
