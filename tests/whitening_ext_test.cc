#include <cmath>
#include <cstdio>

#include <gtest/gtest.h>

#include "whitening/incremental_whitening.h"
#include "whitening/whitening.h"
#include "linalg/eigen.h"
#include "linalg/stats.h"
#include "nn/serialize.h"

namespace whitenrec {
namespace {

using linalg::Matrix;
using linalg::Rng;

Matrix CorrelatedCloud(std::size_t n, std::size_t d, Rng* rng) {
  Matrix a = rng->GaussianMatrix(d, d, 1.0);
  for (std::size_t i = 0; i < d; ++i)
    for (std::size_t j = 0; j < d; ++j) a(i, j) /= static_cast<double>(j + 1);
  Matrix z = rng->GaussianMatrix(n, d, 1.0);
  Matrix x = linalg::MatMulTransB(z, a);
  for (std::size_t r = 0; r < n; ++r) {
    double* row = x.RowPtr(r);
    for (std::size_t c = 0; c < d; ++c) row[c] += 2.0;
  }
  return x;
}

// ---------------------------------------------------------------------------
// Ledoit-Wolf shrinkage
// ---------------------------------------------------------------------------

TEST(LedoitWolfTest, LargeCorrelatedSampleMatchesSampleCovariance) {
  // With n >> d and a genuinely non-spherical truth, the optimal shrinkage
  // goes to ~0 and LW ~ S. (On *isotropic* data rho correctly goes to 1:
  // the spherical target is the truth there.)
  Rng rng(1);
  const Matrix x = CorrelatedCloud(20000, 4, &rng);
  double rho = -1.0;
  const Matrix lw = linalg::LedoitWolfCovariance(x, &rho);
  const Matrix s = linalg::Covariance(x);
  EXPECT_LT(rho, 0.02);
  const double scale = s.MaxAbs();
  for (std::size_t i = 0; i < s.size(); ++i)
    EXPECT_NEAR(lw.data()[i], s.data()[i], 0.03 * scale);
}

TEST(LedoitWolfTest, IsotropicDataShrinksFully) {
  Rng rng(21);
  const Matrix x = rng.GaussianMatrix(5000, 4, 1.0);
  double rho = -1.0;
  linalg::LedoitWolfCovariance(x, &rho);
  EXPECT_GT(rho, 0.5);  // target equals the truth, so shrink hard
}

TEST(LedoitWolfTest, SmallSampleShrinksTowardSphericalTarget) {
  Rng rng(2);
  const Matrix x = CorrelatedCloud(12, 8, &rng);  // n close to d
  double rho = -1.0;
  const Matrix lw = linalg::LedoitWolfCovariance(x, &rho);
  EXPECT_GT(rho, 0.05);
  EXPECT_LE(rho, 1.0);
  // Shrinkage must improve conditioning vs the raw sample covariance.
  const Matrix s = linalg::Covariance(x);
  auto k_lw = linalg::ConditionNumber(lw, 1e-15);
  auto k_s = linalg::ConditionNumber(s, 1e-15);
  ASSERT_TRUE(k_lw.ok());
  ASSERT_TRUE(k_s.ok());
  EXPECT_LT(k_lw.value(), k_s.value());
}

TEST(LedoitWolfTest, PreservesTrace) {
  Rng rng(3);
  const Matrix x = CorrelatedCloud(40, 6, &rng);
  const Matrix lw = linalg::LedoitWolfCovariance(x);
  const Matrix s = linalg::Covariance(x);
  double tr_lw = 0.0, tr_s = 0.0;
  for (std::size_t i = 0; i < 6; ++i) {
    tr_lw += lw(i, i);
    tr_s += s(i, i);
  }
  EXPECT_NEAR(tr_lw, tr_s, 1e-9 * std::fabs(tr_s));
}

TEST(LedoitWolfTest, WhiteningWithShrinkageWorks) {
  Rng rng(4);
  const Matrix x = CorrelatedCloud(30, 8, &rng);
  WhiteningOptions options;
  options.ledoit_wolf = true;
  options.epsilon = 0.0;
  auto fitted = FitWhiteningAdvanced(x, options);
  ASSERT_TRUE(fitted.ok());
  const Matrix z = ApplyWhitening(fitted.value(), x);
  // Shrinkage trades exact isotropy for stability; variances should at
  // least land in a sane band.
  const Matrix cov = linalg::Covariance(z);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_GT(cov(i, i), 0.2);
    EXPECT_LT(cov(i, i), 5.0);
  }
}

// ---------------------------------------------------------------------------
// Newton-Schulz inverse square root
// ---------------------------------------------------------------------------

TEST(NewtonSchulzTest, MatchesExactOnIdentity) {
  auto z = linalg::NewtonSchulzInverseSqrt(Matrix::Identity(4), 6);
  ASSERT_TRUE(z.ok());
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      EXPECT_NEAR(z.value()(i, j), i == j ? 1.0 : 0.0, 1e-6);
}

TEST(NewtonSchulzTest, SquareOfResultInvertsInput) {
  Rng rng(5);
  Matrix a = rng.GaussianMatrix(5, 5, 1.0);
  Matrix spd = linalg::MatMulTransB(a, a);
  for (std::size_t i = 0; i < 5; ++i) spd(i, i) += 1.0;
  auto z = linalg::NewtonSchulzInverseSqrt(spd, 20);
  ASSERT_TRUE(z.ok());
  // z * spd * z ~ I.
  const Matrix check = linalg::MatMul(z.value(),
                                      linalg::MatMul(spd, z.value()));
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 5; ++j)
      EXPECT_NEAR(check(i, j), i == j ? 1.0 : 0.0, 1e-4);
}

TEST(NewtonSchulzTest, MoreIterationsMoreAccurate) {
  Rng rng(6);
  Matrix a = rng.GaussianMatrix(6, 6, 1.0);
  Matrix spd = linalg::MatMulTransB(a, a);
  for (std::size_t i = 0; i < 6; ++i) spd(i, i) += 0.5;
  auto err = [&](int iters) {
    auto z = linalg::NewtonSchulzInverseSqrt(spd, iters);
    WR_CHECK(z.ok());
    Matrix check = linalg::MatMul(z.value(), linalg::MatMul(spd, z.value()));
    for (std::size_t i = 0; i < 6; ++i) check(i, i) -= 1.0;
    return check.MaxAbs();
  };
  EXPECT_LT(err(12), err(3));
}

TEST(NewtonSchulzTest, RejectsBadInput) {
  EXPECT_FALSE(linalg::NewtonSchulzInverseSqrt(Matrix(2, 3)).ok());
  EXPECT_FALSE(linalg::NewtonSchulzInverseSqrt(Matrix(3, 3)).ok());  // trace 0
}

TEST(NewtonSchulzTest, ZcaViaNewtonApproximatesExact) {
  // Newton-Schulz converges per eigenvalue; near-null directions need many
  // iterations, so compare on a moderately conditioned cloud (as DBN does:
  // it whitens already-normalized activations).
  Rng rng(7);
  Matrix x = rng.GaussianMatrix(400, 6, 1.0);
  for (std::size_t r = 0; r < x.rows(); ++r)
    for (std::size_t c = 0; c < 6; ++c)
      x(r, c) *= 1.0 + 0.5 * static_cast<double>(c);
  WhiteningOptions newton;
  newton.newton_iterations = 20;
  auto w_newton = FitWhiteningAdvanced(x, newton);
  auto w_exact = FitWhitening(x, WhiteningKind::kZca);
  ASSERT_TRUE(w_newton.ok());
  ASSERT_TRUE(w_exact.ok());
  const Matrix diff =
      linalg::Sub(w_newton.value().phi, w_exact.value().phi);
  EXPECT_LT(diff.MaxAbs() / w_exact.value().phi.MaxAbs(), 0.05);
}

TEST(NewtonSchulzTest, OnlyValidForZca) {
  Rng rng(8);
  const Matrix x = CorrelatedCloud(50, 4, &rng);
  WhiteningOptions options;
  options.kind = WhiteningKind::kPca;
  options.newton_iterations = 5;
  EXPECT_FALSE(FitWhiteningAdvanced(x, options).ok());
}

// ---------------------------------------------------------------------------
// Incremental whitening
// ---------------------------------------------------------------------------

TEST(IncrementalWhiteningTest, MatchesBatchStatistics) {
  Rng rng(9);
  const Matrix x = CorrelatedCloud(200, 5, &rng);
  IncrementalWhitening acc(5);
  acc.Add(x.RowSlice(0, 80));
  acc.Add(x.RowSlice(80, 140));
  acc.Add(x.RowSlice(140, 200));
  EXPECT_EQ(acc.count(), 200u);

  const std::vector<double> batch_mean = linalg::ColumnMean(x);
  const std::vector<double> inc_mean = acc.Mean();
  for (std::size_t c = 0; c < 5; ++c)
    EXPECT_NEAR(inc_mean[c], batch_mean[c], 1e-10);

  auto inc_cov = acc.CovarianceMatrix();
  ASSERT_TRUE(inc_cov.ok());
  const Matrix batch_cov = linalg::Covariance(x);
  for (std::size_t i = 0; i < batch_cov.size(); ++i)
    EXPECT_NEAR(inc_cov.value().data()[i], batch_cov.data()[i], 1e-9);
}

class IncrementalKindTest : public ::testing::TestWithParam<WhiteningKind> {};

TEST_P(IncrementalKindTest, FitMatchesBatchFit) {
  Rng rng(10);
  const Matrix x = CorrelatedCloud(300, 6, &rng);
  IncrementalWhitening acc(6);
  acc.Add(x.RowSlice(0, 123));
  acc.Add(x.RowSlice(123, 300));
  WhiteningOptions options;
  options.kind = GetParam();
  options.epsilon = 1e-6;
  auto inc = acc.Fit(options);
  auto batch = FitWhitening(x, GetParam(), 1e-6);
  ASSERT_TRUE(inc.ok());
  ASSERT_TRUE(batch.ok());
  const Matrix diff = linalg::Sub(inc.value().phi, batch.value().phi);
  EXPECT_LT(diff.MaxAbs(), 1e-6 * std::max(1.0, batch.value().phi.MaxAbs()));
}

INSTANTIATE_TEST_SUITE_P(Kinds, IncrementalKindTest,
                         ::testing::Values(WhiteningKind::kZca,
                                           WhiteningKind::kPca,
                                           WhiteningKind::kCholesky,
                                           WhiteningKind::kBatchNorm));

TEST(IncrementalWhiteningTest, FitNeedsSamples) {
  IncrementalWhitening acc(4);
  EXPECT_FALSE(acc.Fit(WhiteningOptions{}).ok());
}

TEST(IncrementalWhiteningTest, StreamingColdStartScenario) {
  // Day-1 catalog fits the transform; day-2 arrivals update it; the refit
  // whitens the combined catalog exactly.
  Rng rng(12);
  const Matrix day1 = CorrelatedCloud(200, 6, &rng);
  const Matrix day2 = CorrelatedCloud(100, 6, &rng);
  IncrementalWhitening acc(6);
  acc.Add(day1);
  acc.Add(day2);
  WhiteningOptions options;
  options.epsilon = 1e-8;
  auto w = acc.Fit(options);
  ASSERT_TRUE(w.ok());
  Matrix all(300, 6);
  for (std::size_t r = 0; r < 200; ++r) all.SetRow(r, day1.Row(r));
  for (std::size_t r = 0; r < 100; ++r) all.SetRow(200 + r, day2.Row(r));
  const Matrix z = ApplyWhitening(w.value(), all);
  const IsotropyDiagnostics diag = MeasureIsotropy(z);
  EXPECT_LT(diag.max_diag_error, 1e-3);
  EXPECT_LT(diag.max_offdiag_cov, 1e-3);
}

// ---------------------------------------------------------------------------
// Parameter serialization
// ---------------------------------------------------------------------------

TEST(SerializeTest, SaveLoadRoundTrip) {
  Rng rng(13);
  nn::Parameter a("layer.W", rng.GaussianMatrix(3, 4, 1.0));
  nn::Parameter b("layer.b", rng.GaussianMatrix(1, 4, 1.0));
  const std::string path = ::testing::TempDir() + "/ckpt_roundtrip.bin";
  ASSERT_TRUE(nn::SaveParameters(path, {&a, &b}).ok());

  nn::Parameter a2("layer.W", Matrix(3, 4));
  nn::Parameter b2("layer.b", Matrix(1, 4));
  ASSERT_TRUE(nn::LoadParameters(path, {&a2, &b2}).ok());
  for (std::size_t i = 0; i < a.value.size(); ++i)
    EXPECT_DOUBLE_EQ(a2.value.data()[i], a.value.data()[i]);
  for (std::size_t i = 0; i < b.value.size(); ++i)
    EXPECT_DOUBLE_EQ(b2.value.data()[i], b.value.data()[i]);
  std::remove(path.c_str());
}

TEST(SerializeTest, RejectsShapeMismatch) {
  Rng rng(14);
  nn::Parameter a("w", rng.GaussianMatrix(2, 2, 1.0));
  const std::string path = ::testing::TempDir() + "/ckpt_shape.bin";
  ASSERT_TRUE(nn::SaveParameters(path, {&a}).ok());
  nn::Parameter wrong("w", Matrix(3, 2));
  EXPECT_FALSE(nn::LoadParameters(path, {&wrong}).ok());
  std::remove(path.c_str());
}

TEST(SerializeTest, RejectsNameMismatch) {
  Rng rng(15);
  nn::Parameter a("w", rng.GaussianMatrix(2, 2, 1.0));
  const std::string path = ::testing::TempDir() + "/ckpt_name.bin";
  ASSERT_TRUE(nn::SaveParameters(path, {&a}).ok());
  nn::Parameter wrong("v", Matrix(2, 2));
  EXPECT_FALSE(nn::LoadParameters(path, {&wrong}).ok());
  std::remove(path.c_str());
}

TEST(SerializeTest, RejectsMissingFile) {
  nn::Parameter a("w", Matrix(2, 2));
  EXPECT_FALSE(nn::LoadParameters("/nonexistent/ckpt.bin", {&a}).ok());
}

TEST(SerializeTest, RejectsCountMismatch) {
  Rng rng(16);
  nn::Parameter a("a", rng.GaussianMatrix(2, 2, 1.0));
  nn::Parameter b("b", rng.GaussianMatrix(2, 2, 1.0));
  const std::string path = ::testing::TempDir() + "/ckpt_count.bin";
  ASSERT_TRUE(nn::SaveParameters(path, {&a, &b}).ok());
  EXPECT_FALSE(nn::LoadParameters(path, {&a}).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace whitenrec
