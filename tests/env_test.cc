// core/env: the strict parsers every main reads knobs and flags through,
// and the finite-rate contract of the two injectors they configure.

#include "core/env.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/faultfs.h"
#include "linalg/quant.h"
#include "serve/chaos.h"

namespace whitenrec {
namespace core {
namespace {

// One input per row; rows with ok == false must be rejected.
struct IntCase {
  std::string text;
  bool ok;
  std::uint64_t value;
};

TEST(EnvParse, IntegerTable) {
  const std::vector<IntCase> cases = {
      {"0", true, 0},
      {"8", true, 8},
      {"007", true, 7},
      // Seeds above 2^63 are valid; 2^64 overflows (ERANGE).
      {"9223372036854775808", true, 9223372036854775808ULL},
      {"18446744073709551615", true, std::numeric_limits<std::uint64_t>::max()},
      {"18446744073709551616", false, 0},
      {"", false, 0},
      {"8x", false, 0},         // trailing junk
      {"8 ", false, 0},         // trailing blank
      {" 8", false, 0},         // leading blank
      {"-1", false, 0},         // strtoull would wrap this to 2^64 - 1
      {"+1", false, 0},
      {"eight", false, 0},      // atoi would read this as 0
      {"1e3", false, 0},
      {std::string("1\0" "2", 3), false, 0},  // embedded NUL
  };
  for (const IntCase& c : cases) {
    const Result<std::uint64_t> u = ParseU64(c.text);
    const Result<std::size_t> s = ParseSize(c.text);
    EXPECT_EQ(u.ok(), c.ok) << "\"" << c.text << "\"";
    EXPECT_EQ(s.ok(), c.ok) << "\"" << c.text << "\"";
    if (c.ok && u.ok() && s.ok()) {
      EXPECT_EQ(u.value(), c.value);
      EXPECT_EQ(s.value(), c.value);
    }
    if (!u.ok()) {
      EXPECT_EQ(u.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(u.status().message().find(c.text.c_str()), std::string::npos);
    }
  }
}

struct DoubleCase {
  std::string text;
  bool ok;
  double value;
};

TEST(EnvParse, DoubleTable) {
  const std::vector<DoubleCase> cases = {
      {"0", true, 0.0},
      {"0.25", true, 0.25},
      {"1", true, 1.0},
      {"1e-1", true, 0.1},
      {"", false, 0},
      {"0.5x", false, 0},   // trailing junk
      {" 0.5", false, 0},
      {"nan", false, 0},    // would fault on every operation as a rate
      {"NaN", false, 0},
      {"inf", false, 0},
      {"-inf", false, 0},
      {"1e999", false, 0},  // ERANGE overflow
      {"1e-999", false, 0}, // ERANGE underflow
      {"2", false, 0},      // out of [0, 1]
      {"-0.5", false, 0},
      {"abc", false, 0},
  };
  for (const DoubleCase& c : cases) {
    const Result<double> r = ParseDouble(c.text, 0.0, 1.0);
    EXPECT_EQ(r.ok(), c.ok) << "\"" << c.text << "\"";
    if (c.ok && r.ok()) {
      EXPECT_EQ(r.value(), c.value);
    }
  }
  const Result<double> wide = ParseDouble("-2.5", -10.0, 10.0);
  ASSERT_TRUE(wide.ok());
  EXPECT_EQ(wide.value(), -2.5);
}

TEST(EnvParse, ChoiceTable) {
  const std::vector<std::string> choices = {"zca", "pca", "cd"};
  EXPECT_EQ(ParseChoice("zca", choices).value(), 0u);
  EXPECT_EQ(ParseChoice("cd", choices).value(), 2u);
  for (const char* bad : {"", "ZCA", "zca ", "bn"}) {
    const Result<std::size_t> r = ParseChoice(bad, choices);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_NE(r.status().message().find("zca|pca|cd"), std::string::npos);
  }
}

TEST(EnvParse, ItemQuantKindRoundTrips) {
  for (linalg::ItemQuantKind kind :
       {linalg::ItemQuantKind::kFp32, linalg::ItemQuantKind::kInt8,
        linalg::ItemQuantKind::kBf16}) {
    EXPECT_EQ(linalg::ParseItemQuantKind(linalg::ItemQuantKindName(kind))
                  .value(),
              kind);
  }
  EXPECT_FALSE(linalg::ParseItemQuantKind("int4").ok());
  EXPECT_FALSE(linalg::ParseItemQuantKind("").ok());
}

TEST(EnvParseDeathTest, InjectorsRejectNonFiniteRates) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DEATH(FaultInjector::Global().Configure(1, nan), "finite");
  EXPECT_DEATH(FaultInjector::Global().Configure(1, inf), "finite");
  serve::ChaosInjector chaos;
  EXPECT_DEATH(chaos.Configure(1, nan), "finite");
  EXPECT_DEATH(chaos.Configure(1, -inf), "finite");
}

}  // namespace
}  // namespace core
}  // namespace whitenrec
