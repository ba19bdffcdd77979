// Shared main of the gtest suites. The library reads no environment, so
// this main applies the process-wide WHITENREC_* knobs through the public
// setters before any test runs: the check-* targets rerun one binary at
// another thread count, item-table representation, or fault schedule by
// setting WHITENREC_THREADS, WHITENREC_ITEM_QUANT or
// WHITENREC_FAULT_{SEED,RATE}. A set but malformed knob exits naming it.
// The serving chaos plane has no process-wide state: each test that wants
// chaos lends its own injector to its service (ServeConfig::chaos).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <thread>

#include "core/env.h"
#include "core/faultfs.h"
#include "core/parallel.h"
#include "linalg/quant.h"

namespace whitenrec {
namespace {

struct ProcessKnobs {
  std::size_t threads = 0;  // 0 = hardware concurrency
  linalg::ItemQuantKind quant = linalg::ItemQuantKind::kFp32;
  std::uint64_t fault_seed = 1;
  double fault_rate = 0.0;
};

ProcessKnobs ReadProcessKnobs() {
  ProcessKnobs k;
  k.threads = core::EnvSize("WHITENREC_THREADS", k.threads);
  if (const char* quant = core::EnvText("WHITENREC_ITEM_QUANT")) {
    k.quant = core::OrExit("WHITENREC_ITEM_QUANT",
                           linalg::ParseItemQuantKind(quant));
  }
  k.fault_seed = core::EnvU64("WHITENREC_FAULT_SEED", k.fault_seed);
  k.fault_rate = core::EnvDouble("WHITENREC_FAULT_RATE", k.fault_rate, 0, 1);
  return k;
}

void ApplyProcessKnobs(const ProcessKnobs& k) {
  core::SetNumThreads(k.threads);
  linalg::SetItemQuantKind(k.quant);
  core::FaultInjector::Global().Configure(k.fault_seed, k.fault_rate);
}

// The live process state is what the knobs ask for, so a check-* rerun
// under a knob really runs in that configuration. Every test that changes
// one of these restores it, so the order of tests does not matter.
TEST(TestMain, AppliesProcessKnobs) {
  const ProcessKnobs k = ReadProcessKnobs();
  // whitenrec-lint: allow(raw-thread) reads the core count, starts nothing
  const unsigned cores = std::thread::hardware_concurrency();
  const std::size_t hardware = std::max<std::size_t>(1, cores);
  EXPECT_EQ(core::NumThreads(), k.threads == 0 ? hardware : k.threads);
  EXPECT_EQ(linalg::CurrentItemQuantKind(), k.quant);
  EXPECT_EQ(core::FaultInjector::Global().seed(), k.fault_seed);
  EXPECT_EQ(core::FaultInjector::Global().rate(), k.fault_rate);
}

}  // namespace
}  // namespace whitenrec

int main(int argc, char** argv) {
  testing::InitGoogleTest(&argc, argv);
  whitenrec::ApplyProcessKnobs(whitenrec::ReadProcessKnobs());
  return RUN_ALL_TESTS();
}
