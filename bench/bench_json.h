#ifndef WHITENREC_BENCH_BENCH_JSON_H_
#define WHITENREC_BENCH_BENCH_JSON_H_

// Machine-readable bench artifacts. Every harness writes its CSV/JSON
// outputs under one directory — `out/` by default, overridable with
// WHITENREC_OUT_DIR — which is gitignored so result files never end up
// committed next to the sources. The JSON builder is deliberately tiny:
// objects, arrays, strings and numbers are all the BENCH_*.json records
// need, and it keeps the harnesses dependency-free.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/env.h"

namespace whitenrec {
namespace bench {

// Output directory for bench artifacts; created on first use.
inline const std::string& OutDir() {
  static const std::string dir = [] {
    const char* env = core::EnvText("WHITENREC_OUT_DIR");
    std::string d = env != nullptr ? env : "out";
    std::error_code ec;
    std::filesystem::create_directories(d, ec);
    if (ec) {
      std::fprintf(stderr, "bench: cannot create output dir '%s': %s\n",
                   d.c_str(), ec.message().c_str());
      std::exit(EXIT_FAILURE);
    }
    return d;
  }();
  return dir;
}

inline std::string OutPath(const std::string& file) {
  return OutDir() + "/" + file;
}

// A JSON value: string, number, bool, object or array. Build with the
// static factories, compose with Set()/Push(), serialize with Dump().
class Json {
 public:
  static Json Str(std::string s) {
    Json j;
    j.rendered_ = Quote(s);
    return j;
  }
  static Json Num(double v) {
    Json j;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    j.rendered_ = buf;
    return j;
  }
  static Json Int(long long v) {
    Json j;
    j.rendered_ = std::to_string(v);
    return j;
  }
  static Json Bool(bool v) {
    Json j;
    j.rendered_ = v ? "true" : "false";
    return j;
  }
  static Json Obj() {
    Json j;
    j.is_obj_ = true;
    return j;
  }
  static Json Arr() {
    Json j;
    j.is_arr_ = true;
    return j;
  }

  Json& Set(const std::string& key, Json value) {
    members_.emplace_back(key, std::move(value));
    return *this;
  }
  Json& Push(Json value) {
    members_.emplace_back(std::string(), std::move(value));
    return *this;
  }

  std::string Dump(int indent = 0) const {
    if (!is_obj_ && !is_arr_) return rendered_;
    const std::string pad(static_cast<std::size_t>(indent) + 2, ' ');
    std::string s(1, is_obj_ ? '{' : '[');
    for (std::size_t i = 0; i < members_.size(); ++i) {
      s += i == 0 ? "\n" : ",\n";
      s += pad;
      if (is_obj_) s += Quote(members_[i].first) + ": ";
      s += members_[i].second.Dump(indent + 2);
    }
    if (!members_.empty()) {
      // Two appends, not `"\n" + string(...)`: GCC 12's -Wrestrict
      // false-positives on operator+(const char*, string&&).
      s += '\n';
      s.append(static_cast<std::size_t>(indent), ' ');
    }
    s += is_obj_ ? '}' : ']';
    return s;
  }

 private:
  static std::string Quote(const std::string& s) {
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
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    out += '"';
    return out;
  }

  bool is_obj_ = false;
  bool is_arr_ = false;
  std::string rendered_;  // scalar leaf
  std::vector<std::pair<std::string, Json>> members_;
};

// Writes `value` to <OutDir()>/<file> and reports the path on stdout.
inline void WriteJsonFile(const std::string& file, const Json& value) {
  const std::string path = OutPath(file);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write '%s'\n", path.c_str());
    std::exit(EXIT_FAILURE);
  }
  const std::string text = value.Dump() + "\n";
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::printf("[json] wrote %s\n", path.c_str());
}

}  // namespace bench
}  // namespace whitenrec

#endif  // WHITENREC_BENCH_BENCH_JSON_H_
