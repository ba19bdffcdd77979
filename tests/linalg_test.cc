#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "linalg/cholesky.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"
#include "linalg/rng.h"
#include "linalg/stats.h"

namespace whitenrec {
namespace linalg {
namespace {

// ---------------------------------------------------------------------------
// Matrix basics
// ---------------------------------------------------------------------------

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(m(i, j), 0.0);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m.At(1, 2), 5.0);
}

TEST(MatrixTest, FillConstructor) {
  Matrix m(3, 2, 1.5);
  for (std::size_t i = 0; i < m.size(); ++i)
    EXPECT_DOUBLE_EQ(m.data()[i], 1.5);
}

TEST(MatrixTest, Identity) {
  const Matrix eye = Matrix::Identity(4);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      EXPECT_DOUBLE_EQ(eye(i, j), i == j ? 1.0 : 0.0);
}

TEST(MatrixTest, FromRows) {
  const Matrix m = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
}

TEST(MatrixTest, RowColAccessors) {
  const Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(m.Row(1), (std::vector<double>{4, 5, 6}));
  EXPECT_EQ(m.Col(2), (std::vector<double>{3, 6}));
}

TEST(MatrixTest, SetRow) {
  Matrix m(2, 2);
  m.SetRow(0, {7, 8});
  EXPECT_DOUBLE_EQ(m(0, 0), 7.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 8.0);
}

TEST(MatrixTest, AppendRowGrowsInPlace) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  m.AppendRow({5, 6});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(2, 0), 5.0);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
  // Geometric growth: many appends reallocate only O(log n) times.
  std::size_t reallocations = 0;
  std::size_t capacity = m.CapacityBytes();
  for (int i = 0; i < 1000; ++i) {
    m.AppendRow({static_cast<double>(i), -static_cast<double>(i)});
    if (m.CapacityBytes() != capacity) {
      ++reallocations;
      capacity = m.CapacityBytes();
    }
  }
  EXPECT_EQ(m.rows(), 1003u);
  EXPECT_DOUBLE_EQ(m(1002, 1), -999.0);
  EXPECT_LT(reallocations, 32u);
}

TEST(MatrixTest, RowSlice) {
  const Matrix m = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  const Matrix s = m.RowSlice(1, 3);
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_DOUBLE_EQ(s(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(s(1, 1), 6.0);
}

TEST(MatrixTest, ColSliceAndSetColSlice) {
  Matrix m = Matrix::FromRows({{1, 2, 3, 4}, {5, 6, 7, 8}});
  const Matrix s = m.ColSlice(1, 3);
  EXPECT_EQ(s.cols(), 2u);
  EXPECT_DOUBLE_EQ(s(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(s(1, 1), 7.0);
  Matrix block = Matrix::FromRows({{-1, -2}, {-3, -4}});
  m.SetColSlice(1, block);
  EXPECT_DOUBLE_EQ(m(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(m(1, 2), -4.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);  // untouched
  EXPECT_DOUBLE_EQ(m(1, 3), 8.0);  // untouched
}

TEST(MatrixTest, InPlaceArithmetic) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::FromRows({{10, 20}, {30, 40}});
  a += b;
  EXPECT_DOUBLE_EQ(a(1, 1), 44.0);
  a -= b;
  EXPECT_DOUBLE_EQ(a(1, 1), 4.0);
  a *= 2.0;
  EXPECT_DOUBLE_EQ(a(0, 0), 2.0);
}

TEST(MatrixTest, FrobeniusNormAndMaxAbs) {
  const Matrix m = Matrix::FromRows({{3, 0}, {0, -4}});
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), 5.0);
  EXPECT_DOUBLE_EQ(m.MaxAbs(), 4.0);
}

// ---------------------------------------------------------------------------
// Matrix products
// ---------------------------------------------------------------------------

TEST(MatMulTest, KnownProduct) {
  const Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  const Matrix c = MatMul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatMulTest, IdentityIsNeutral) {
  Rng rng(1);
  const Matrix a = rng.GaussianMatrix(4, 4, 1.0);
  const Matrix c = MatMul(a, Matrix::Identity(4));
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(c.data()[i], a.data()[i], 1e-12);
}

TEST(MatMulTest, TransAMatchesExplicitTranspose) {
  Rng rng(2);
  const Matrix a = rng.GaussianMatrix(5, 3, 1.0);
  const Matrix b = rng.GaussianMatrix(5, 4, 1.0);
  const Matrix fast = MatMulTransA(a, b);
  const Matrix slow = MatMul(Transpose(a), b);
  EXPECT_EQ(fast.rows(), 3u);
  EXPECT_EQ(fast.cols(), 4u);
  for (std::size_t i = 0; i < fast.size(); ++i)
    EXPECT_NEAR(fast.data()[i], slow.data()[i], 1e-12);
}

TEST(MatMulTest, TransBMatchesExplicitTranspose) {
  Rng rng(3);
  const Matrix a = rng.GaussianMatrix(4, 3, 1.0);
  const Matrix b = rng.GaussianMatrix(6, 3, 1.0);
  const Matrix fast = MatMulTransB(a, b);
  const Matrix slow = MatMul(a, Transpose(b));
  for (std::size_t i = 0; i < fast.size(); ++i)
    EXPECT_NEAR(fast.data()[i], slow.data()[i], 1e-12);
}

TEST(MatMulTest, MatVecMatchesMatMul) {
  Rng rng(4);
  const Matrix a = rng.GaussianMatrix(4, 3, 1.0);
  const std::vector<double> x = {1.0, -2.0, 0.5};
  const std::vector<double> y = MatVec(a, x);
  for (std::size_t i = 0; i < 4; ++i) {
    double expected = 0.0;
    for (std::size_t j = 0; j < 3; ++j) expected += a(i, j) * x[j];
    EXPECT_NEAR(y[i], expected, 1e-12);
  }
}

TEST(MatMulTest, HadamardAndAxpy) {
  const Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::FromRows({{2, 2}, {2, 2}});
  const Matrix h = Hadamard(a, b);
  EXPECT_DOUBLE_EQ(h(1, 0), 6.0);
  Matrix acc = a;
  Axpy(0.5, b, &acc);
  EXPECT_DOUBLE_EQ(acc(0, 0), 2.0);
}

TEST(MatMulTest, DotAndNorm) {
  EXPECT_DOUBLE_EQ(Dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_DOUBLE_EQ(Norm({3, 4}), 5.0);
}

TEST(MatMulTest, TransposeRoundTrip) {
  Rng rng(5);
  const Matrix a = rng.GaussianMatrix(3, 7, 1.0);
  const Matrix tt = Transpose(Transpose(a));
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_DOUBLE_EQ(tt.data()[i], a.data()[i]);
}

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i)
    if (a.NextU64() == b.NextU64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanApproximatelyHalf) {
  Rng rng(8);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(9);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(RngTest, GaussianShifted) {
  Rng rng(10);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian(3.0, 0.5);
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(11);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 5000; ++i) ++counts[rng.UniformInt(5)];
  for (int c : counts) EXPECT_GT(c, 800);  // roughly uniform
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(12);
  std::vector<double> w = {1.0, 3.0};
  int second = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i)
    if (rng.Categorical(w) == 1) ++second;
  EXPECT_NEAR(second / static_cast<double>(n), 0.75, 0.03);
}

TEST(RngTest, SampleLogitsFollowsSoftmax) {
  Rng rng(13);
  // logits (0, log 3) -> probabilities (0.25, 0.75).
  std::vector<double> logits = {0.0, std::log(3.0)};
  int second = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i)
    if (rng.SampleLogits(logits) == 1) ++second;
  EXPECT_NEAR(second / static_cast<double>(n), 0.75, 0.03);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(14);
  std::vector<int> v(20);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

// ---------------------------------------------------------------------------
// Eigendecomposition
// ---------------------------------------------------------------------------

TEST(EigenTest, DiagonalMatrix) {
  const Matrix d = Matrix::FromRows({{3, 0, 0}, {0, 1, 0}, {0, 0, 2}});
  auto result = SymmetricEigen(d);
  ASSERT_TRUE(result.ok());
  const auto& e = result.value();
  EXPECT_NEAR(e.values[0], 3.0, 1e-10);
  EXPECT_NEAR(e.values[1], 2.0, 1e-10);
  EXPECT_NEAR(e.values[2], 1.0, 1e-10);
}

TEST(EigenTest, Known2x2) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  const Matrix m = Matrix::FromRows({{2, 1}, {1, 2}});
  auto result = SymmetricEigen(m);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value().values[0], 3.0, 1e-10);
  EXPECT_NEAR(result.value().values[1], 1.0, 1e-10);
}

TEST(EigenTest, NotSquareFails) {
  const Matrix m(2, 3);
  EXPECT_FALSE(SymmetricEigen(m).ok());
}

class EigenReconstructionTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigenReconstructionTest, ReconstructsInput) {
  const std::size_t n = GetParam();
  Rng rng(100 + n);
  Matrix a = rng.GaussianMatrix(n, n, 1.0);
  Matrix sym = Add(a, Transpose(a));
  sym *= 0.5;
  auto result = SymmetricEigen(sym);
  ASSERT_TRUE(result.ok());
  const auto& e = result.value();
  // Reconstruct V diag(lambda) V^T.
  Matrix scaled = e.vectors;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) scaled(i, j) *= e.values[j];
  const Matrix recon = MatMulTransB(scaled, e.vectors);
  for (std::size_t i = 0; i < recon.size(); ++i)
    EXPECT_NEAR(recon.data()[i], sym.data()[i], 1e-8);
}

TEST_P(EigenReconstructionTest, EigenvectorsOrthonormal) {
  const std::size_t n = GetParam();
  Rng rng(200 + n);
  Matrix a = rng.GaussianMatrix(n, n, 1.0);
  Matrix sym = Add(a, Transpose(a));
  sym *= 0.5;
  auto result = SymmetricEigen(sym);
  ASSERT_TRUE(result.ok());
  const Matrix vtv =
      MatMulTransA(result.value().vectors, result.value().vectors);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_NEAR(vtv(i, j), i == j ? 1.0 : 0.0, 1e-9);
}

TEST_P(EigenReconstructionTest, ValuesSortedDescending) {
  const std::size_t n = GetParam();
  Rng rng(300 + n);
  Matrix a = rng.GaussianMatrix(n, n, 1.0);
  Matrix sym = Add(a, Transpose(a));
  sym *= 0.5;
  auto result = SymmetricEigen(sym);
  ASSERT_TRUE(result.ok());
  const auto& vals = result.value().values;
  for (std::size_t i = 1; i < vals.size(); ++i)
    EXPECT_GE(vals[i - 1], vals[i] - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenReconstructionTest,
                         ::testing::Values(2, 3, 5, 8, 16, 32));

TEST(EigenTest, SingularValuesOfOrthogonalScaled) {
  // X = 2 * I (3x3): singular values all 2.
  Matrix x = Matrix::Identity(3);
  x *= 2.0;
  auto sv = SingularValues(x);
  ASSERT_TRUE(sv.ok());
  for (double v : sv.value()) EXPECT_NEAR(v, 2.0, 1e-10);
}

TEST(EigenTest, SingularValuesRankOne) {
  // Outer product has exactly one non-zero singular value.
  Matrix x(4, 3);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      x(i, j) = static_cast<double>(i + 1) * static_cast<double>(j + 1);
  auto sv = SingularValues(x);
  ASSERT_TRUE(sv.ok());
  EXPECT_GT(sv.value()[0], 1.0);
  for (std::size_t i = 1; i < sv.value().size(); ++i)
    EXPECT_NEAR(sv.value()[i], 0.0, 1e-8);
}

TEST(EigenTest, ConditionNumberIdentity) {
  auto kappa = ConditionNumber(Matrix::Identity(5));
  ASSERT_TRUE(kappa.ok());
  EXPECT_NEAR(kappa.value(), 1.0, 1e-9);
}

TEST(EigenTest, ConditionNumberAnisotropic) {
  const Matrix d = Matrix::FromRows({{100, 0}, {0, 1}});
  auto kappa = ConditionNumber(d);
  ASSERT_TRUE(kappa.ok());
  EXPECT_NEAR(kappa.value(), 100.0, 1e-6);
}

// ---------------------------------------------------------------------------
// Cholesky
// ---------------------------------------------------------------------------

TEST(CholeskyTest, IdentityFactorsToIdentity) {
  auto l = Cholesky(Matrix::Identity(4));
  ASSERT_TRUE(l.ok());
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      EXPECT_NEAR(l.value()(i, j), i == j ? 1.0 : 0.0, 1e-12);
}

TEST(CholeskyTest, ReconstructsSpdMatrix) {
  Rng rng(500);
  const Matrix a = rng.GaussianMatrix(6, 6, 1.0);
  Matrix spd = MatMulTransB(a, a);  // A A^T is PSD; add ridge for PD
  for (std::size_t i = 0; i < 6; ++i) spd(i, i) += 0.5;
  auto l = Cholesky(spd);
  ASSERT_TRUE(l.ok());
  const Matrix recon = MatMulTransB(l.value(), l.value());
  for (std::size_t i = 0; i < spd.size(); ++i)
    EXPECT_NEAR(recon.data()[i], spd.data()[i], 1e-9);
}

TEST(CholeskyTest, LowerTriangularOutput) {
  Rng rng(501);
  const Matrix a = rng.GaussianMatrix(5, 5, 1.0);
  Matrix spd = MatMulTransB(a, a);
  for (std::size_t i = 0; i < 5; ++i) spd(i, i) += 0.5;
  auto l = Cholesky(spd);
  ASSERT_TRUE(l.ok());
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = i + 1; j < 5; ++j)
      EXPECT_DOUBLE_EQ(l.value()(i, j), 0.0);
}

TEST(CholeskyTest, RejectsNonPd) {
  const Matrix m = Matrix::FromRows({{1, 2}, {2, 1}});  // eigenvalues 3, -1
  EXPECT_FALSE(Cholesky(m).ok());
}

TEST(CholeskyTest, RejectsNonSquare) { EXPECT_FALSE(Cholesky(Matrix(2, 3)).ok()); }

TEST(CholeskyTest, InverseTimesOriginalIsIdentity) {
  Rng rng(502);
  const Matrix a = rng.GaussianMatrix(5, 5, 1.0);
  Matrix spd = MatMulTransB(a, a);
  for (std::size_t i = 0; i < 5; ++i) spd(i, i) += 0.5;
  auto l = Cholesky(spd);
  ASSERT_TRUE(l.ok());
  auto linv = LowerTriangularInverse(l.value());
  ASSERT_TRUE(linv.ok());
  const Matrix prod = MatMul(linv.value(), l.value());
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 5; ++j)
      EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-9);
}

TEST(CholeskyTest, ForwardSolve) {
  const Matrix l = Matrix::FromRows({{2, 0}, {1, 3}});
  auto x = ForwardSolve(l, {4, 10});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR(x.value()[0], 2.0, 1e-12);
  EXPECT_NEAR(x.value()[1], 8.0 / 3.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

TEST(StatsTest, ColumnMean) {
  const Matrix m = Matrix::FromRows({{1, 10}, {3, 20}});
  const std::vector<double> mean = ColumnMean(m);
  EXPECT_DOUBLE_EQ(mean[0], 2.0);
  EXPECT_DOUBLE_EQ(mean[1], 15.0);
}

TEST(StatsTest, CenterColumnsZeroesMeans) {
  Rng rng(600);
  Matrix m = rng.GaussianMatrix(50, 4, 2.0);
  CenterColumns(&m);
  const std::vector<double> mean = ColumnMean(m);
  for (double v : mean) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(StatsTest, CovarianceOfIsotropicData) {
  Rng rng(601);
  const Matrix x = rng.GaussianMatrix(20000, 3, 1.0);
  const Matrix cov = Covariance(x);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      EXPECT_NEAR(cov(i, j), i == j ? 1.0 : 0.0, 0.05);
}

TEST(StatsTest, CovarianceEpsilonRidge) {
  const Matrix x = Matrix::FromRows({{1, 1}, {1, 1}, {1, 1}});
  const Matrix cov = Covariance(x, 0.5);
  EXPECT_NEAR(cov(0, 0), 0.5, 1e-12);  // zero variance + ridge
  EXPECT_NEAR(cov(0, 1), 0.0, 1e-12);
}

TEST(StatsTest, CosineSimilarityBasics) {
  EXPECT_NEAR(CosineSimilarity({1, 0}, {1, 0}), 1.0, 1e-12);
  EXPECT_NEAR(CosineSimilarity({1, 0}, {0, 1}), 0.0, 1e-12);
  EXPECT_NEAR(CosineSimilarity({1, 0}, {-1, 0}), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(CosineSimilarity({0, 0}, {1, 0}), 0.0);
}

TEST(StatsTest, MeanPairwiseCosineOfParallelRows) {
  // All rows identical direction: mean cosine = 1.
  Matrix x(10, 3);
  for (std::size_t r = 0; r < 10; ++r) {
    x(r, 0) = static_cast<double>(r + 1);
  }
  Rng rng(602);
  EXPECT_NEAR(MeanPairwiseCosine(x, &rng), 1.0, 1e-12);
}

TEST(StatsTest, MeanPairwiseCosineOfIsotropicCloudNearZero) {
  Rng rng(603);
  const Matrix x = rng.GaussianMatrix(300, 16, 1.0);
  Rng rng2(604);
  EXPECT_NEAR(MeanPairwiseCosine(x, &rng2), 0.0, 0.05);
}

TEST(StatsTest, PairwiseCosinesCountExact) {
  Rng rng(605);
  const Matrix x = rng.GaussianMatrix(10, 4, 1.0);
  const std::vector<double> cosines = PairwiseCosines(x, &rng, 1000);
  EXPECT_EQ(cosines.size(), 45u);  // 10 choose 2
}

TEST(StatsTest, PairwiseCosinesSampledCap) {
  Rng rng(606);
  const Matrix x = rng.GaussianMatrix(200, 4, 1.0);
  const std::vector<double> cosines = PairwiseCosines(x, &rng, 500);
  EXPECT_EQ(cosines.size(), 500u);
}

TEST(StatsTest, EmpiricalCdfMonotone) {
  std::vector<double> samples = {0.1, 0.5, 0.5, 0.9};
  const auto cdf = EmpiricalCdf(samples, 11, 0.0, 1.0);
  EXPECT_EQ(cdf.size(), 11u);
  EXPECT_DOUBLE_EQ(cdf.front().cdf, 0.0);
  EXPECT_DOUBLE_EQ(cdf.back().cdf, 1.0);
  for (std::size_t i = 1; i < cdf.size(); ++i)
    EXPECT_GE(cdf[i].cdf, cdf[i - 1].cdf);
}

TEST(StatsTest, EmpiricalCdfMidpoint) {
  std::vector<double> samples = {0.0, 1.0};
  const auto cdf = EmpiricalCdf(samples, 3, -0.5, 1.5);
  EXPECT_DOUBLE_EQ(cdf[1].cdf, 0.5);  // threshold 0.5 covers one sample
}

TEST(StatsTest, MeanVariance) {
  const std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Mean(v), 2.5);
  EXPECT_DOUBLE_EQ(Variance(v), 1.25);
}

}  // namespace
}  // namespace linalg
}  // namespace whitenrec
