#include "core/env.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace whitenrec {
namespace core {
namespace {

Status Invalid(const std::string& expected, const std::string& text) {
  return Status::InvalidArgument(expected + ", got \"" + text + "\"");
}

// True when strtoX stopped exactly at the end of `text` (an embedded NUL
// stops it early and so counts as trailing junk).
bool ConsumedAll(const std::string& text, const char* end) {
  return end == text.c_str() + text.size();
}

}  // namespace

Result<std::uint64_t> ParseU64(const std::string& text) {
  // strtoull skips blanks and wraps a leading '-' around to 2^64 - n, so
  // the text must start with a digit.
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    return Invalid("expected a non-negative integer", text);
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (!ConsumedAll(text, end)) {
    return Invalid("expected a non-negative integer", text);
  }
  if (errno == ERANGE) return Invalid("integer out of range", text);
  return static_cast<std::uint64_t>(v);
}

Result<std::size_t> ParseSize(const std::string& text) {
  Result<std::uint64_t> v = ParseU64(text);
  if (!v.ok()) return v.status();
  const auto size = static_cast<std::size_t>(v.value());
  if (static_cast<std::uint64_t>(size) != v.value()) {
    return Invalid("integer out of range", text);
  }
  return size;
}

Result<double> ParseDouble(const std::string& text, double lo, double hi) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "expected a finite number in [%g, %g]", lo,
                hi);
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return Invalid(buf, text);
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (!ConsumedAll(text, end) || errno == ERANGE || !std::isfinite(v) ||
      v < lo || v > hi) {
    return Invalid(buf, text);
  }
  return v;
}

Result<std::size_t> ParseChoice(const std::string& text,
                                const std::vector<std::string>& choices) {
  std::string expected = "expected one of ";
  for (std::size_t i = 0; i < choices.size(); ++i) {
    if (choices[i] == text) return i;
    expected += (i == 0 ? "" : "|") + choices[i];
  }
  return Invalid(expected, text);
}

void ExitWithConfigError(const char* what, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", what, status.message().c_str());
  std::exit(2);
}

const char* EnvText(const char* name) {
  const char* value = std::getenv(name);
  return value == nullptr || *value == '\0' ? nullptr : value;
}

std::size_t EnvSize(const char* name, std::size_t fallback) {
  const char* text = EnvText(name);
  return text == nullptr ? fallback : OrExit(name, ParseSize(text));
}

std::uint64_t EnvU64(const char* name, std::uint64_t fallback) {
  const char* text = EnvText(name);
  return text == nullptr ? fallback : OrExit(name, ParseU64(text));
}

double EnvDouble(const char* name, double fallback, double lo, double hi) {
  const char* text = EnvText(name);
  return text == nullptr ? fallback : OrExit(name, ParseDouble(text, lo, hi));
}

}  // namespace core
}  // namespace whitenrec
