// bench::WriteArtifact, the one write path for bench outputs: what it
// writes is what is on disk, a JSON artifact must parse, and an injected
// I/O fault (core/faultfs) comes back as an error instead of a silently
// missing or damaged file.

#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "bench/artifact.h"
#include "core/faultfs.h"

namespace whitenrec {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/artifact_test_" + name;
}

TEST(WriteArtifact, WritesTheExactBytes) {
  core::ScopedFaultConfig no_faults(/*seed=*/1, /*rate=*/0.0);
  const std::string path = TempPath("ok.json");
  const std::string text = "{\n  \"bench\": \"x\"\n}\n";
  ASSERT_TRUE(bench::WriteArtifact(path, text).ok());
  EXPECT_EQ(core::ReadFileToString(path).value(), text);
  // Non-JSON artifacts (figure CSVs) are checked for their bytes only.
  const std::string csv = TempPath("ok.csv");
  EXPECT_TRUE(bench::WriteArtifact(csv, "x,y\n1,2\n").ok());
  std::remove(path.c_str());
  std::remove(csv.c_str());
}

TEST(WriteArtifact, RejectsJsonThatDoesNotParse) {
  core::ScopedFaultConfig no_faults(/*seed=*/1, /*rate=*/0.0);
  const std::string path = TempPath("bad.json");
  // What a writer that printed a NaN with %g would leave behind.
  EXPECT_FALSE(bench::WriteArtifact(path, "{\"qps\": nan}\n").ok());
  EXPECT_FALSE(bench::WriteArtifact(path, "{\"a\": 1} trailing").ok());
  std::remove(path.c_str());
}

TEST(WriteArtifact, ReportsAnInjectedWriteFault) {
  core::ScopedFaultConfig no_faults(/*seed=*/1, /*rate=*/0.0);
  const std::string path = TempPath("faulty.json");
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    // Every operation faults: EIO and short writes exhaust the retry
    // budget, a torn rename or a bit-flip leaves bytes that differ from the
    // payload. Each must surface as an error.
    core::ScopedFaultConfig faults(seed, /*rate=*/1.0);
    EXPECT_FALSE(bench::WriteArtifact(path, "{\"a\": 1}\n").ok())
        << "seed " << seed;
  }
  // Under a partial fault rate some writes succeed; a success must mean the
  // file holds the payload (a bit-flipped write that "succeeded" is caught
  // by the read-back comparison).
  const std::string text = "{\"payload\": \"0123456789abcdef\"}\n";
  int failures = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Status s;
    {
      core::ScopedFaultConfig faults(seed, /*rate=*/0.3);
      s = bench::WriteArtifact(path, text);
    }
    if (!s.ok()) {
      ++failures;
      continue;
    }
    EXPECT_EQ(core::ReadFileToString(path).value(), text) << "seed " << seed;
  }
  EXPECT_GT(failures, 0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace whitenrec
