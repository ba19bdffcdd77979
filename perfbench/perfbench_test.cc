// Self-tests of the benchmark's measuring math on hand-computed inputs.
// Exits non-zero if any expectation fails. run.py runs it before
// every workload; it can also be run alone: .bench_build/perfbench_test

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "measure.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "perfbench_test:%d: FAILED: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

void TestQuantiles() {
  // 1..100 shuffled: nearest rank gives the k-th smallest for q = k / 100.
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) {
    v.push_back(static_cast<double>((i * 37) % 100 + 1));
  }
  EXPECT(Quantile(v, 0.5) == 50.0);
  EXPECT(Quantile(v, 0.99) == 99.0);
  EXPECT(Quantile(v, 0.0) == 1.0);
  EXPECT(Quantile(v, 1.0) == 100.0);
  EXPECT(Median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(Median({4.0, 1.0, 3.0, 2.0}) == 2.0);  // lower middle, ceil(2) = 2
  EXPECT(Median({7.5}) == 7.5);
  // Slow side: the upper quartile of times, the lower quartile of rates.
  EXPECT(SlowSideTime(v) == 75.0);
  EXPECT(SlowSideRate(v) == 25.0);
  EXPECT(SlowSideTime({4.0, 1.0, 3.0, 2.0, 5.0}) == 4.0);  // ceil(3.75) = 4
  EXPECT(SlowSideRate({4.0, 1.0, 3.0, 2.0, 5.0}) == 2.0);  // ceil(1.25) = 2

  // Ten samples beyond the rank: n - ceil(q n) >= 10.
  EXPECT(!TailSupported(100, 0.99));   // 100 - 99 = 1
  EXPECT(!TailSupported(999, 0.99));   // 999 - 990 = 9
  EXPECT(TailSupported(1000, 0.99));   // 1000 - 990 = 10
  EXPECT(TailSupported(20, 0.5));      // 20 - 10 = 10
  EXPECT(!TailSupported(19, 0.5));     // 19 - 10 = 9
  EXPECT(!TailSupported(0, 0.5));
  EXPECT(HighestSupportedQuantile(9) == 0.0);
  EXPECT(std::fabs(HighestSupportedQuantile(200) - 0.95) < 1e-12);
  EXPECT(TailSupported(200, HighestSupportedQuantile(200)));
}

void TestSelfTimes() {
  // root [0, 100) with children [10, 30) and [20, 50) (overlapping: union
  // 40) and a grandchild [25, 35) inside the first child; a child sticking
  // out of its parent is clipped.
  std::vector<Interval> s = {
      {0, 100, -1},  // 0
      {10, 30, 0},   // 1
      {20, 50, 0},   // 2
      {25, 35, 1},   // 3: clipped to [25, 30) within span 1
      {90, 120, 0},  // 4: clipped to [90, 100)
      {200, 210, -1},
  };
  const std::vector<std::uint64_t> self = SelfTimes(s);
  EXPECT(self[0] == 100 - 40 - 10);  // union [10,50) and [90,100)
  EXPECT(self[1] == 20 - 5);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 10);
  EXPECT(self[4] == 30);
  EXPECT(self[5] == 10);
}

void TestOpenLoop() {
  // Window 10, max batch 3. Requests due at 0, 4, 8, 9, 12, 40, an ingest
  // due at 41, then a request due at 42.
  std::vector<Event> ev = {
      {0, EventKind::kRequest},  {4, EventKind::kRequest},
      {8, EventKind::kRequest},  {9, EventKind::kRequest},
      {12, EventKind::kRequest}, {40, EventKind::kRequest},
      {41, EventKind::kIngest},  {42, EventKind::kRequest},
  };
  OpenLoop loop(ev, 10, 3);
  // Idle server sees request 0 at t=0: waits one window, starts at 10 with
  // everything due by 10 (0, 4, 8; max batch 3 stops before 9).
  Operation op = loop.Next();
  EXPECT(op.kind == EventKind::kRequest && op.begin == 0 && op.end == 3);
  EXPECT(op.start_ns == 10);
  EXPECT(loop.Complete(op, 15) == 25);
  // Busy until 25: requests 9 and 12 are due, batch starts at 25.
  op = loop.Next();
  EXPECT(op.begin == 3 && op.end == 5 && op.start_ns == 25);
  loop.Complete(op, 5);  // free at 30
  // Idle at 30; request due 40 opens a window until 50, but the ingest due
  // at 41 ends the batch.
  op = loop.Next();
  EXPECT(op.begin == 5 && op.end == 6 && op.start_ns == 50);
  loop.Complete(op, 2);  // free at 52
  op = loop.Next();
  EXPECT(op.kind == EventKind::kIngest && op.begin == 6 && op.end == 7);
  EXPECT(op.start_ns == 52);
  loop.Complete(op, 100);  // an inline refit: free at 152
  op = loop.Next();
  EXPECT(op.begin == 7 && op.end == 8 && op.start_ns == 152);
  loop.Complete(op, 3);
  EXPECT(loop.Finished());
  // Latency = completion - due, counted from the due time.
  const std::vector<std::uint64_t>& c = loop.completion_ns();
  const std::uint64_t expect_latency[] = {25, 21, 17, 21, 18, 12, 111, 113};
  for (std::size_t i = 0; i < ev.size(); ++i) {
    EXPECT(c[i] - ev[i].due_ns == expect_latency[i]);
  }
  const std::uint64_t expect_wait[] = {10, 6, 2, 16, 13, 10, 11, 110};
  for (std::size_t i = 0; i < ev.size(); ++i) {
    EXPECT(loop.wait_ns()[i] == expect_wait[i]);
  }
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestQuantiles();
  perfbench::TestSelfTimes();
  perfbench::TestOpenLoop();
  if (perfbench::failures != 0) {
    std::fprintf(stderr, "perfbench_test: %d expectation(s) failed\n",
                 perfbench::failures);
    return 1;
  }
  std::printf("perfbench_test: all measuring-math checks passed\n");
  return 0;
}
