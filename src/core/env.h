#ifndef WHITENREC_CORE_ENV_H_
#define WHITENREC_CORE_ENV_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"

namespace whitenrec {
namespace core {

// Strict parsing of configuration text at the program edges. Mains read
// WHITENREC_* knobs and command-line flags through these functions and hand
// the values to the library by value; the library itself reads no
// environment. tools/analyze enforces both halves: env.cc holds the only
// getenv of a WHITENREC_* name (rule bare-getenv), and no other src/ file
// includes this header (rule library-env).
//
// Each parser consumes the whole text. Empty text, trailing junk, a sign or
// leading blank on an integer, overflow, nan/inf and values outside the
// stated range are kInvalidArgument — never a silent 0 or a wrapped value.

// A decimal integer in [0, SIZE_MAX] / [0, UINT64_MAX].
Result<std::size_t> ParseSize(const std::string& text);
Result<std::uint64_t> ParseU64(const std::string& text);
// A finite decimal number in [lo, hi].
Result<double> ParseDouble(const std::string& text, double lo, double hi);
// The index of `text` in `choices` (exact match).
Result<std::size_t> ParseChoice(const std::string& text,
                                const std::vector<std::string>& choices);

// Prints "<what>: <message>" to stderr and exits with status 2. `what`
// names the knob or flag the bad text came from.
[[noreturn]] void ExitWithConfigError(const char* what, const Status& status);

// Unwraps a parse result, or exits naming `what`.
template <typename T>
T OrExit(const char* what, Result<T> parsed) {
  if (!parsed.ok()) ExitWithConfigError(what, parsed.status());
  return std::move(parsed).ValueOrDie();
}

// The value of environment variable `name`, or nullptr when it is unset or
// empty.
const char* EnvText(const char* name);

// Knob readers: an unset or empty knob gives `fallback`; a set but malformed
// one exits naming the knob.
std::size_t EnvSize(const char* name, std::size_t fallback);
std::uint64_t EnvU64(const char* name, std::uint64_t fallback);
double EnvDouble(const char* name, double fallback, double lo, double hi);

}  // namespace core
}  // namespace whitenrec

#endif  // WHITENREC_CORE_ENV_H_
