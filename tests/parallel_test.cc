// Unit tests for the thread-pool substrate (core/parallel.h): pool
// lifecycle, exception propagation, nested submits, and the static-chunking
// edge cases ParallelFor must handle (empty range, range < threads,
// grain > range). These run under check-tsan as well.

#include "core/parallel.h"
#include "scoped_knobs.h"

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace whitenrec {
namespace core {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, StartupAndShutdown) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_workers(), 4u);
  // Destruction with an empty queue must join cleanly (checked by running).
}

TEST(ThreadPoolTest, ShutdownDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(count.load(), 100);
  }
}

TEST(ThreadPoolTest, WaitRethrowsTaskException) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // The error is consumed: a subsequent Wait with healthy tasks succeeds.
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  EXPECT_NO_THROW(pool.Wait());
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, NestedSubmitDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&pool, &count] {
      count.fetch_add(1);
      pool.Submit([&count] { count.fetch_add(1); });
    });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPoolTest, WorkerThreadsAreMarked) {
  EXPECT_FALSE(ThreadPool::InWorkerThread());
  ThreadPool pool(1);
  std::atomic<bool> marked{false};
  pool.Submit([&marked] { marked = ThreadPool::InWorkerThread(); });
  pool.Wait();
  EXPECT_TRUE(marked.load());
}

// ---------------------------------------------------------------------------
// Thread configuration
// ---------------------------------------------------------------------------

TEST(ThreadConfigTest, SetAndGet) {
  ScopedThreads guard(3);
  EXPECT_EQ(NumThreads(), 3u);
  SetNumThreads(1);
  EXPECT_EQ(NumThreads(), 1u);
}

TEST(ThreadConfigTest, ZeroSelectsHardwareConcurrency) {
  ScopedThreads guard(2);
  SetNumThreads(0);
  EXPECT_GE(NumThreads(), 1u);
}

// ---------------------------------------------------------------------------
// ParallelFor
// ---------------------------------------------------------------------------

// Every index in [begin, end) must be visited exactly once, whatever the
// grain/thread combination.
void ExpectFullCoverage(std::size_t begin, std::size_t end, std::size_t grain,
                        std::size_t threads) {
  ScopedThreads guard(threads);
  std::vector<std::atomic<int>> visits(end);
  for (auto& v : visits) v = 0;
  ParallelFor(begin, end, grain, [&](std::size_t i0, std::size_t i1) {
    EXPECT_LE(i0, i1);
    for (std::size_t i = i0; i < i1; ++i) visits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < begin; ++i) EXPECT_EQ(visits[i].load(), 0);
  for (std::size_t i = begin; i < end; ++i)
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(ParallelForTest, EmptyRangeNeverInvokes) {
  ScopedThreads guard(4);
  bool called = false;
  ParallelFor(5, 5, 1, [&](std::size_t, std::size_t) { called = true; });
  ParallelFor(7, 3, 1, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, RangeSmallerThanThreads) {
  ExpectFullCoverage(0, 3, 1, 8);
}

TEST(ParallelForTest, GrainLargerThanRange) {
  ExpectFullCoverage(0, 5, 100, 4);
}

TEST(ParallelForTest, GrainZeroIsClampedToOne) {
  ExpectFullCoverage(0, 9, 0, 4);
}

TEST(ParallelForTest, NonZeroBeginAndRaggedLastChunk) {
  ExpectFullCoverage(3, 17, 4, 3);  // chunks 3-6, 7-10, 11-14, 15-16
}

TEST(ParallelForTest, SerialConfigurationRunsInline) {
  ScopedThreads guard(1);
  std::vector<int> visits(16, 0);
  ParallelFor(0, 16, 2, [&](std::size_t i0, std::size_t i1) {
    EXPECT_FALSE(ThreadPool::InWorkerThread());
    for (std::size_t i = i0; i < i1; ++i) ++visits[i];
  });
  EXPECT_EQ(std::accumulate(visits.begin(), visits.end(), 0), 16);
}

TEST(ParallelForTest, RethrowsLowestChunkException) {
  ScopedThreads guard(4);
  // Chunks 2 and 5 both fail; the surfaced message must always be chunk 2's,
  // independent of scheduling.
  for (int attempt = 0; attempt < 20; ++attempt) {
    try {
      ParallelFor(0, 8, 1, [&](std::size_t i0, std::size_t) {
        if (i0 == 2) throw std::runtime_error("chunk2");
        if (i0 == 5) throw std::runtime_error("chunk5");
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "chunk2");
    }
  }
}

TEST(ParallelForTest, NestedParallelForRunsInline) {
  ScopedThreads guard(4);
  std::vector<std::atomic<int>> visits(64);
  for (auto& v : visits) v = 0;
  ParallelFor(0, 8, 1, [&](std::size_t o0, std::size_t o1) {
    for (std::size_t o = o0; o < o1; ++o) {
      ParallelFor(0, 8, 1, [&](std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i)
          visits[o * 8 + i].fetch_add(1);
      });
    }
  });
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(visits[i].load(), 1);
}

// ---------------------------------------------------------------------------
// ParallelReduceSum
// ---------------------------------------------------------------------------

TEST(ParallelReduceTest, SumsTheRange) {
  ScopedThreads guard(4);
  const double total = ParallelReduceSum(
      0, 1000, 64, [](std::size_t i0, std::size_t i1) {
        double s = 0.0;
        for (std::size_t i = i0; i < i1; ++i) s += static_cast<double>(i);
        return s;
      });
  EXPECT_DOUBLE_EQ(total, 999.0 * 1000.0 / 2.0);
}

TEST(ParallelReduceTest, BitwiseIdenticalAcrossThreadCounts) {
  // Ill-conditioned summands make any reassociation visible in the bits.
  auto chunk_sum = [](std::size_t i0, std::size_t i1) {
    double s = 0.0;
    for (std::size_t i = i0; i < i1; ++i) {
      s += (i % 3 == 0 ? 1e16 : 1.0) * (i % 2 == 0 ? 1.0 : -0.999999);
    }
    return s;
  };
  std::vector<double> results;
  for (std::size_t threads : {1u, 2u, 8u}) {
    ScopedThreads guard(threads);
    results.push_back(ParallelReduceSum(0, 4097, 32, chunk_sum));
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

TEST(ParallelReduceTest, EmptyRangeIsZero) {
  ScopedThreads guard(4);
  EXPECT_EQ(ParallelReduceSum(4, 4, 8,
                              [](std::size_t, std::size_t) { return 1.0; }),
            0.0);
}

}  // namespace
}  // namespace core
}  // namespace whitenrec
