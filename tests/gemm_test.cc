// Bitwise equivalence of the production GEMM entry points (linalg/gemm.cc,
// which dispatch to the blocked kernels above a size threshold) against the
// reference loops (NaiveMatMul*Acc), across shapes that stress every packing
// edge case (empty, single row/column, odd remainders, non-square, larger
// than one cache block) and across thread counts. Both kernels promise ONE
// canonical accumulation order per output element — ascending k with a
// single running accumulator — so equality here is exact, not tolerance-
// based. Also checks that the thread-local packing workspace carries no
// state between calls.

#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel.h"
#include "linalg/gemm.h"
#include "linalg/matrix.h"
#include "linalg/rng.h"
#include "linalg/workspace.h"
#include "scoped_knobs.h"

namespace whitenrec {
namespace linalg {
namespace {

const std::vector<std::size_t> kThreadCounts = {1, 2, 8};

void ExpectBitwiseEqual(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i])
        << what << " diverges at flat index " << i << " (" << a.data()[i]
        << " vs " << b.data()[i] << ")";
  }
}

// (m, k, n) triples covering the packing edge cases: kMr=4 / kNr=8 register
// tiles, kMc=64 row blocks, kKc=256 k-panels. Shapes straddle each boundary
// and include degenerate and strongly rectangular cases. The products below
// the blocked cut-off with n >= 16 (1x32x32, 2x32x64, 3x17x41) run the
// small kernel's 16-column register blocks, the last with a scalar tail.
struct Shape {
  std::size_t m, k, n;
};

const Shape kShapes[] = {
    {0, 0, 0},    {0, 5, 7},    {3, 4, 0},    {1, 1, 1},   {1, 17, 9},
    {5, 1, 8},    {4, 8, 8},    {7, 13, 11},  {31, 29, 37}, {64, 256, 8},
    {65, 257, 9}, {12, 300, 5}, {130, 40, 70}, {96, 512, 96},
    {1, 32, 32},  {2, 32, 64},  {3, 17, 41},
};

// Fresh deterministic operands for a shape; `salt` decorrelates A from B.
Matrix Operand(std::size_t rows, std::size_t cols, std::uint64_t salt) {
  Rng rng(0x9e3779b9u + salt);
  return rng.GaussianMatrix(rows, cols, 1.0);
}

enum class Op { kMatMul, kTransA, kTransB };

void RunInto(Op op, const Matrix& a, const Matrix& b, Matrix* c) {
  switch (op) {
    case Op::kMatMul:
      MatMulInto(a, b, c);
      break;
    case Op::kTransA:
      MatMulTransAInto(a, b, c);
      break;
    case Op::kTransB:
      MatMulTransBInto(a, b, c);
      break;
  }
}

// The reference loops, C += op(A) * op(B), single-threaded.
void RunReferenceAcc(Op op, const Matrix& a, const Matrix& b, Matrix* c) {
  ScopedThreads one(1);
  switch (op) {
    case Op::kMatMul:
      NaiveMatMulAcc(a, b, c);
      break;
    case Op::kTransA:
      NaiveMatMulTransAAcc(a, b, c);
      break;
    case Op::kTransB:
      NaiveMatMulTransBAcc(a, b, c);
      break;
  }
}

void RunAcc(Op op, const Matrix& a, const Matrix& b, Matrix* c) {
  switch (op) {
    case Op::kMatMul:
      MatMulAcc(a, b, c);
      break;
    case Op::kTransA:
      MatMulTransAAcc(a, b, c);
      break;
    case Op::kTransB:
      MatMulTransBAcc(a, b, c);
      break;
  }
}

// Builds (A, B) with the right orientation for `op` given logical (m, k, n).
void MakeOperands(Op op, const Shape& s, Matrix* a, Matrix* b) {
  switch (op) {
    case Op::kMatMul:  // (m,k) x (k,n)
      *a = Operand(s.m, s.k, 1);
      *b = Operand(s.k, s.n, 2);
      break;
    case Op::kTransA:  // (k,m)^T x (k,n)
      *a = Operand(s.k, s.m, 1);
      *b = Operand(s.k, s.n, 2);
      break;
    case Op::kTransB:  // (m,k) x (n,k)^T
      *a = Operand(s.m, s.k, 1);
      *b = Operand(s.n, s.k, 2);
      break;
  }
}

const char* OpName(Op op) {
  switch (op) {
    case Op::kMatMul:
      return "MatMul";
    case Op::kTransA:
      return "MatMulTransA";
    case Op::kTransB:
      return "MatMulTransB";
  }
  return "?";
}

TEST(GemmEquivalenceTest, BlockedMatchesNaiveBitwiseAcrossShapesAndThreads) {
  for (Op op : {Op::kMatMul, Op::kTransA, Op::kTransB}) {
    for (const Shape& s : kShapes) {
      Matrix a, b;
      MakeOperands(op, s, &a, &b);

      Matrix ref(s.m, s.n);
      RunReferenceAcc(op, a, b, &ref);
      for (std::size_t threads : kThreadCounts) {
        ScopedThreads t(threads);
        Matrix c;
        RunInto(op, a, b, &c);
        SCOPED_TRACE(::testing::Message()
                     << OpName(op) << " m=" << s.m << " k=" << s.k
                     << " n=" << s.n << " threads=" << threads);
        ExpectBitwiseEqual(ref, c, OpName(op));
      }
    }
  }
}

TEST(GemmEquivalenceTest, AccVariantsMatchNaiveBitwise) {
  for (Op op : {Op::kMatMul, Op::kTransA, Op::kTransB}) {
    for (const Shape& s : kShapes) {
      Matrix a, b;
      MakeOperands(op, s, &a, &b);
      // Accumulate on top of a non-trivial C so the "+=" path is real.
      const Matrix c0 = Operand(s.m, s.n, 3);

      Matrix ref = c0;
      RunReferenceAcc(op, a, b, &ref);
      for (std::size_t threads : kThreadCounts) {
        ScopedThreads t(threads);
        Matrix c = c0;
        RunAcc(op, a, b, &c);
        SCOPED_TRACE(::testing::Message()
                     << OpName(op) << "Acc m=" << s.m << " k=" << s.k
                     << " n=" << s.n << " threads=" << threads);
        ExpectBitwiseEqual(ref, c, OpName(op));
      }
    }
  }
}

TEST(GemmEquivalenceTest, MatVecMatchesMatMulColumn) {
  Rng rng(11);
  const Matrix a = rng.GaussianMatrix(37, 53, 1.0);
  std::vector<double> x(53);
  for (double& v : x) v = rng.Gaussian();
  Matrix xcol(53, 1);
  for (std::size_t i = 0; i < x.size(); ++i) xcol(i, 0) = x[i];

  const Matrix ref = MatMul(a, xcol);
  for (std::size_t threads : kThreadCounts) {
    ScopedThreads t(threads);
    std::vector<double> y;
    MatVecInto(a, x, &y);
    ASSERT_EQ(y.size(), ref.rows());
    for (std::size_t i = 0; i < y.size(); ++i) {
      ASSERT_EQ(y[i], ref(i, 0)) << "MatVec row " << i << " at " << threads
                                 << " threads";
    }
  }
}

// The packing workspace is thread-local scratch: a big product followed by a
// small one, then the small one again from scratch, must agree bitwise. If
// stale packed panels leaked between calls, the second small product would
// read residue from the large one.
TEST(GemmWorkspaceTest, NoContaminationAcrossCalls) {
  const Matrix big_a = Operand(96, 512, 7);
  const Matrix big_b = Operand(512, 96, 8);
  const Matrix small_a = Operand(5, 9, 9);
  const Matrix small_b = Operand(9, 6, 10);

  Matrix fresh;
  MatMulInto(small_a, small_b, &fresh);  // before any big call this test makes

  Matrix big;
  MatMulInto(big_a, big_b, &big);
  Matrix after;
  MatMulInto(small_a, small_b, &after);
  ExpectBitwiseEqual(fresh, after, "small product after large product");

  // Same property for the destination-reusing path: shrinking a workspace
  // matrix must zero-fill, not expose old values.
  Workspace ws;
  Matrix& m = ws.Mat(0, 64, 64);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = 123.0;
  Matrix& shrunk = ws.Mat(0, 3, 3);
  for (std::size_t i = 0; i < shrunk.size(); ++i) {
    ASSERT_EQ(shrunk.data()[i], 0.0) << "stale workspace value at " << i;
  }
  ASSERT_EQ(&m, &shrunk);  // same slot object, capacity reused
}

// ---------------------------------------------------------------------------
// Streaming score panels (the fused-scoring tile layer)
// ---------------------------------------------------------------------------

// The streaming layer promises each panel element is the SAME accumulation
// chain as the corresponding full-GEMM element, so reassembling the panels
// must reproduce the reference product bitwise — for any tile width and
// thread count, on both sides of the blocked-kernel size threshold — and
// every (row, tile) cell must be delivered exactly once.
TEST(StreamingGemmTest, ReassembledPanelsMatchMatMulTransBBitwise) {
  const Shape stream_shapes[] = {
      {1, 1, 1}, {5, 17, 9}, {31, 29, 37}, {64, 256, 8}, {96, 512, 96}};
  for (const Shape& s : stream_shapes) {
    const Matrix a = Operand(s.m, s.k, 1);
    const Matrix b = Operand(s.n, s.k, 2);
    Matrix ref(s.m, s.n);
    RunReferenceAcc(Op::kTransB, a, b, &ref);
    for (std::size_t threads : kThreadCounts) {
      for (const std::size_t tile : {1u, 7u, 64u, 1000u}) {
        ScopedThreads t(threads);
        SCOPED_TRACE(::testing::Message()
                     << "m=" << s.m << " k=" << s.k << " n=" << s.n
                     << " threads=" << threads << " tile=" << tile);
        Matrix assembled(s.m, s.n);
        std::vector<int> delivered(s.m * s.n, 0);
        StreamMatMulTransBTiles(
            a, b, tile,
            [&](std::size_t i0, std::size_t i1, std::size_t j0,
                std::size_t jn, const Matrix& panel) {
              for (std::size_t i = i0; i < i1; ++i) {
                for (std::size_t c = 0; c < jn; ++c) {
                  assembled(i, j0 + c) = panel(i, c);
                  ++delivered[i * s.n + j0 + c];
                }
              }
            });
        ExpectBitwiseEqual(ref, assembled, "streamed tiles");
        for (std::size_t i = 0; i < delivered.size(); ++i) {
          ASSERT_EQ(delivered[i], 1) << "cell " << i << " delivered "
                                     << delivered[i] << " times";
        }

        Matrix from_panels(s.m, s.n);
        StreamMatMulTransBPanels(
            a, b, tile,
            [&](std::size_t j0, std::size_t jn, Matrix* panel) {
              for (std::size_t i = 0; i < s.m; ++i) {
                for (std::size_t c = 0; c < jn; ++c) {
                  from_panels(i, j0 + c) = (*panel)(i, c);
                }
              }
            });
        ExpectBitwiseEqual(ref, from_panels, "streamed panels");
      }
    }
  }
}

TEST(StreamingGemmTest, RowDotMatchesFullGemmElementBitwise) {
  const Matrix a = Operand(13, 37, 3);
  const Matrix b = Operand(29, 37, 4);
  Matrix ref;
  MatMulTransBInto(a, b, &ref);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.rows(); ++j) {
      ASSERT_EQ(RowDotTransB(a, i, b, j), ref(i, j))
          << "element (" << i << ", " << j << ")";
    }
  }
}

// The tile width is a fixed 256 unless a test overrides it; the override is
// what the tile-invariance sweeps in loss_test and topk_test rely on.
TEST(StreamingGemmTest, ScoreTileDefaultAndOverride) {
  EXPECT_EQ(ScoreTileCols(), 256u);
  SetScoreTileCols(77);
  EXPECT_EQ(ScoreTileCols(), 77u);
  SetScoreTileCols(256);
}

// Buf() slots grow monotonically and keep their identity.
TEST(GemmWorkspaceTest, BufGrowsMonotonically) {
  Workspace ws;
  std::vector<double>& b1 = ws.Buf(0, 100);
  EXPECT_GE(b1.size(), 100u);
  std::vector<double>& b2 = ws.Buf(0, 10);
  EXPECT_EQ(&b1, &b2);
  EXPECT_GE(b2.size(), 100u) << "Buf must never shrink";
  std::vector<double>& b3 = ws.Buf(1, 50);
  EXPECT_NE(&b1, &b3) << "distinct slots must be distinct buffers";
}

}  // namespace
}  // namespace linalg
}  // namespace whitenrec
