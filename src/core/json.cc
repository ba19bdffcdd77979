#include "core/json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace whitenrec {
namespace core {
namespace {

// Arrays and objects parse recursively, so nesting depth is stack depth:
// without a cap, a few hundred KB of '[' overflow the stack. Every document
// this tree writes nests a handful of levels; anything past the cap is
// rejected as InvalidArgument.
constexpr std::size_t kMaxJsonDepth = 256;

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  Status Parse(JsonValue* out) {
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
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return Fail("bad escape");
        // Only the escapes the writers emit; \u is out of scope.
        const char e = text_[pos_];
        if (e == 'n') {
          out->push_back('\n');
        } else if (e == 't') {
          out->push_back('\t');
        } else {
          out->push_back(e);
        }
      } else {
        out->push_back(text_[pos_]);
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) return Fail("unterminated string");
    ++pos_;  // closing quote
    return Status::OK();
  }

  Status ParseNumber(JsonValue* out) {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected a value");
    char* end = nullptr;
    const std::string token = text_.substr(start, pos_ - start);
    out->number = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0') return Fail("malformed number");
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
      out->object[key] = std::move(value);
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

Status RequireJsonNumber(const JsonValue& obj, const char* key, double* out) {
  const auto it = obj.object.find(key);
  if (it == obj.object.end() ||
      it->second.kind != JsonValue::Kind::kNumber) {
    return Status::InvalidArgument(std::string("missing numeric key: ") + key);
  }
  if (out != nullptr) *out = it->second.number;
  return Status::OK();
}

}  // namespace core
}  // namespace whitenrec
