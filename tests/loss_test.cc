// Fused (streaming) softmax cross-entropy vs. the materialized reference.
// Contracts under test (ISSUE 4): StreamingSoftmaxCrossEntropy agrees with
// the materialized logits -> SoftmaxCrossEntropy -> GEMM-backprop pipeline
// to <= 1e-10 relative on loss, dH and dV across batch/length/catalog/tile
// combinations; fused results are bitwise identical at every thread count;
// the fused path's scratch high-water mark stays well below one full
// (rows, num_items) logits matrix; and under WHITENREC_DEBUG_CHECKS the
// fused path's WR_CHECK_FINITE trips on non-finite inputs. The finite
// contract lives inside the library (nn/loss.cc), so the death test is
// active only when the whole tree is built with WHITENREC_DEBUG_CHECKS=ON
// (`make check-debug` reruns this suite in such a tree); the default build
// instead asserts the check compiles out and does not abort.

#include <cmath>
#include <cstdlib>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/check.h"
#include "core/parallel.h"
#include "linalg/gemm.h"
#include "linalg/matrix.h"
#include "linalg/rng.h"
#include "linalg/workspace.h"
#include "nn/loss.h"
#include "scoped_knobs.h"

namespace whitenrec {
namespace nn {
namespace {

using linalg::Matrix;
using linalg::Rng;

class ScopedScoreTile {
 public:
  explicit ScopedScoreTile(std::size_t tile)
      : saved_(linalg::ScoreTileCols()) {
    linalg::SetScoreTileCols(tile);
  }
  ~ScopedScoreTile() { linalg::SetScoreTileCols(saved_); }

 private:
  std::size_t saved_;
};

struct LossProblem {
  Matrix h;
  Matrix v;
  std::vector<std::size_t> targets;
  std::vector<double> weights;
};

// Deterministic synthetic problem; every few rows are weight-0 (padding).
LossProblem MakeProblem(std::size_t n, std::size_t num_items, std::size_t d,
                        std::uint64_t seed) {
  Rng rng(seed);
  LossProblem p;
  p.h = rng.GaussianMatrix(n, d, 1.0);
  p.v = rng.GaussianMatrix(num_items, d, 1.0);
  p.targets.resize(n);
  p.weights.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    p.targets[r] = rng.UniformInt(num_items);
    p.weights[r] = (r % 4 == 3) ? 0.0 : 1.0;
  }
  if (n > 0) p.weights[0] = 1.0;  // at least one active row
  return p;
}

struct LossResult {
  double loss = 0.0;
  Matrix dh;
  Matrix dv;
};

// Materialized reference: full logits, dense softmax CE, GEMM backprop.
LossResult MaterializedReference(const LossProblem& p) {
  LossResult r;
  const Matrix logits = linalg::MatMulTransB(p.h, p.v);
  Matrix dlogits;
  r.loss = SoftmaxCrossEntropy(logits, p.targets, p.weights, &dlogits);
  linalg::MatMulInto(dlogits, p.v, &r.dh);
  linalg::MatMulTransAInto(dlogits, p.h, &r.dv);
  return r;
}

LossResult Fused(const LossProblem& p) {
  LossResult r;
  r.loss = StreamingSoftmaxCrossEntropy(p.h, p.v, p.targets, p.weights,
                                        &r.dh, &r.dv);
  return r;
}

void ExpectRelClose(const Matrix& got, const Matrix& want, double tol,
                    const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double denom = std::max(1.0, std::abs(want.data()[i]));
    ASSERT_LE(std::abs(got.data()[i] - want.data()[i]) / denom, tol)
        << what << " at flat index " << i << " (" << got.data()[i] << " vs "
        << want.data()[i] << ")";
  }
}

void ExpectBitwiseEqual(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << what << " at flat index " << i;
  }
}

// ---------------------------------------------------------------------------
// Parity with the materialized pipeline
// ---------------------------------------------------------------------------

TEST(StreamingLossTest, MatchesMaterializedAcrossShapesAndTiles) {
  struct Shape {
    std::size_t n, num_items, d;
  };
  const Shape shapes[] = {
      {1, 3, 2},      // minimal
      {5, 17, 4},     // smaller than one tile
      {12, 300, 8},   // several tiles, ragged tail
      {64, 1000, 16}, // larger than the blocked-GEMM dispatch threshold
  };
  std::uint64_t seed = 100;
  for (const Shape& s : shapes) {
    const LossProblem p = MakeProblem(s.n, s.num_items, s.d, seed++);
    const LossResult ref = MaterializedReference(p);
    for (const std::size_t tile : {1u, 7u, 256u, 100000u}) {
      ScopedScoreTile st(tile);
      const LossResult fused = Fused(p);
      const double denom = std::max(1.0, std::abs(ref.loss));
      EXPECT_LE(std::abs(fused.loss - ref.loss) / denom, 1e-10)
          << "n=" << s.n << " items=" << s.num_items << " tile=" << tile;
      ExpectRelClose(fused.dh, ref.dh, 1e-10, "dH");
      ExpectRelClose(fused.dv, ref.dv, 1e-10, "dV");
    }
  }
}

TEST(StreamingLossTest, AccumulatesIntoExistingDv) {
  const LossProblem p = MakeProblem(8, 50, 4, 7);
  const LossResult ref = MaterializedReference(p);
  Matrix dh;
  Matrix dv(p.v.rows(), p.v.cols(), 1.0);  // pre-existing gradient content
  StreamingSoftmaxCrossEntropy(p.h, p.v, p.targets, p.weights, &dh, &dv);
  for (std::size_t i = 0; i < dv.size(); ++i) {
    const double want = 1.0 + ref.dv.data()[i];
    ASSERT_LE(std::abs(dv.data()[i] - want) / std::max(1.0, std::abs(want)),
              1e-10);
  }
}

TEST(StreamingLossTest, ZeroWeightRowsContributeNothing) {
  LossProblem p = MakeProblem(6, 40, 4, 9);
  // Give masked rows absurd representations: they must still be ignored.
  for (std::size_t r = 0; r < p.h.rows(); ++r) {
    if (p.weights[r] == 0.0) {
      for (std::size_t c = 0; c < p.h.cols(); ++c) p.h(r, c) = 1e6;
    }
  }
  const LossResult ref = MaterializedReference(p);
  const LossResult fused = Fused(p);
  EXPECT_LE(std::abs(fused.loss - ref.loss) / std::max(1.0, std::abs(ref.loss)),
            1e-10);
  for (std::size_t r = 0; r < p.h.rows(); ++r) {
    if (p.weights[r] != 0.0) continue;
    for (std::size_t c = 0; c < fused.dh.cols(); ++c) {
      EXPECT_EQ(fused.dh(r, c), 0.0);
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism across thread counts
// ---------------------------------------------------------------------------

TEST(StreamingLossTest, BitwiseIdenticalAcrossThreadCounts) {
  const LossProblem p = MakeProblem(48, 700, 16, 11);
  LossResult ref;
  {
    ScopedThreads t(1);
    ref = Fused(p);
  }
  for (const std::size_t threads : {2u, 8u}) {
    ScopedThreads t(threads);
    const LossResult got = Fused(p);
    EXPECT_EQ(got.loss, ref.loss) << "threads=" << threads;
    ExpectBitwiseEqual(got.dh, ref.dh, "dH");
    ExpectBitwiseEqual(got.dv, ref.dv, "dV");
  }
}

// ---------------------------------------------------------------------------
// Memory: the fused path never holds a full logits matrix
// ---------------------------------------------------------------------------

TEST(StreamingLossTest, PeakScratchStaysBelowFullLogits) {
  const std::size_t n = 64;
  const std::size_t num_items = 4096;
  const std::size_t d = 16;
  const LossProblem p = MakeProblem(n, num_items, d, 13);
  const std::size_t full_logits_bytes = n * num_items * sizeof(double);
  ScopedThreads t(4);
  ScopedScoreTile st(256);
  linalg::Workspace::ResetAllWorkspaces();
  Matrix dh;
  Matrix dv;
  StreamingSoftmaxCrossEntropy(p.h, p.v, p.targets, p.weights, &dh, &dv);
  const std::size_t peak = linalg::Workspace::GlobalPeakBytes();
  EXPECT_GT(peak, 0u);
  // The acceptance bar is "no (rows, num_items) allocation on the fused
  // path"; in aggregate the streaming scratch must stay well under half of
  // one full logits matrix even summed across every thread arena.
  EXPECT_LT(peak, full_logits_bytes / 2);
}

// ---------------------------------------------------------------------------
// Debug contracts (twin-binary semantics)
// ---------------------------------------------------------------------------

#if defined(WHITENREC_DEBUG_CHECKS) && WHITENREC_DEBUG_CHECKS

TEST(StreamingLossDeathTest, NonFiniteItemTableTripsFiniteCheck) {
  LossProblem p = MakeProblem(4, 60, 4, 17);
  p.v(10, 2) = std::numeric_limits<double>::infinity();
  Matrix dh;
  Matrix dv;
  EXPECT_DEATH(
      StreamingSoftmaxCrossEntropy(p.h, p.v, p.targets, p.weights, &dh, &dv),
      "WR_CHECK_FINITE failed");
}

#else  // !WHITENREC_DEBUG_CHECKS

TEST(StreamingLossTest, NonFiniteInputDoesNotAbortInRelease) {
  // The finite contract compiles out: the call must complete (the resulting
  // loss is garbage, but the process must not die).
  LossProblem p = MakeProblem(4, 60, 4, 17);
  p.v(10, 2) = std::numeric_limits<double>::infinity();
  Matrix dh;
  Matrix dv;
  const double loss =
      StreamingSoftmaxCrossEntropy(p.h, p.v, p.targets, p.weights, &dh, &dv);
  (void)loss;
  SUCCEED();
}

#endif  // WHITENREC_DEBUG_CHECKS

}  // namespace
}  // namespace nn
}  // namespace whitenrec
