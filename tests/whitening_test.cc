#include <cmath>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "whitening/flow_whitening.h"
#include "whitening/incremental_whitening.h"
#include "whitening/parametric_whitening.h"
#include "whitening/whiten_encoder.h"
#include "whitening/whitening.h"
#include "grad_check.h"
#include "linalg/eigen.h"
#include "linalg/stats.h"

namespace whitenrec {
namespace {

using linalg::Matrix;
using linalg::Rng;
using ::whitenrec::testing::MaxInputGradError;
using ::whitenrec::testing::MaxParamGradError;
using ::whitenrec::testing::WeightedSum;

// Correlated anisotropic test cloud: x = A z + mu with a skewed A.
Matrix AnisotropicCloud(std::size_t n, std::size_t d, Rng* rng) {
  Matrix a = rng->GaussianMatrix(d, d, 1.0);
  // Skew the spectrum so dimensions are strongly correlated.
  for (std::size_t i = 0; i < d; ++i)
    for (std::size_t j = 0; j < d; ++j)
      a(i, j) /= static_cast<double>(j + 1);
  Matrix z = rng->GaussianMatrix(n, d, 1.0);
  Matrix x = linalg::MatMulTransB(z, a);
  for (std::size_t r = 0; r < n; ++r) {
    double* row = x.RowPtr(r);
    for (std::size_t c = 0; c < d; ++c) row[c] += 5.0;  // common offset
  }
  return x;
}

// ---------------------------------------------------------------------------
// Non-parametric whitening transforms
// ---------------------------------------------------------------------------

class WhiteningKindTest : public ::testing::TestWithParam<WhiteningKind> {};

TEST_P(WhiteningKindTest, OutputIsCentered) {
  Rng rng(31);
  const Matrix x = AnisotropicCloud(400, 8, &rng);
  auto fitted = FitWhitening(x, GetParam(), 1e-8);
  ASSERT_TRUE(fitted.ok());
  const Matrix z = ApplyWhitening(fitted.value(), x);
  const std::vector<double> mean = linalg::ColumnMean(z);
  for (double m : mean) EXPECT_NEAR(m, 0.0, 1e-9);
}

TEST_P(WhiteningKindTest, DiagonalOfOutputCovarianceIsOne) {
  Rng rng(32);
  const Matrix x = AnisotropicCloud(400, 8, &rng);
  auto fitted = FitWhitening(x, GetParam(), 1e-8);
  ASSERT_TRUE(fitted.ok());
  const Matrix z = ApplyWhitening(fitted.value(), x);
  const Matrix cov = linalg::Covariance(z);
  for (std::size_t i = 0; i < cov.rows(); ++i)
    EXPECT_NEAR(cov(i, i), 1.0, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, WhiteningKindTest,
                         ::testing::Values(WhiteningKind::kZca,
                                           WhiteningKind::kPca,
                                           WhiteningKind::kCholesky,
                                           WhiteningKind::kBatchNorm));

class DecorrelatingKindTest : public ::testing::TestWithParam<WhiteningKind> {};

TEST_P(DecorrelatingKindTest, OutputCovarianceIsIdentity) {
  Rng rng(33);
  const Matrix x = AnisotropicCloud(500, 6, &rng);
  auto z = WhitenMatrix(x, 1, GetParam(), 1e-8);
  ASSERT_TRUE(z.ok());
  const IsotropyDiagnostics diag = MeasureIsotropy(z.value());
  EXPECT_LT(diag.max_diag_error, 1e-4);
  EXPECT_LT(diag.max_offdiag_cov, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(FullWhiteners, DecorrelatingKindTest,
                         ::testing::Values(WhiteningKind::kZca,
                                           WhiteningKind::kPca,
                                           WhiteningKind::kCholesky));

TEST(WhiteningTest, BatchNormDoesNotDecorrelate) {
  // BN standardizes but leaves cross-dimension correlation intact — this is
  // the paper's motivation for full whitening (Table VI: BN < ZCA/CD).
  Rng rng(34);
  const Matrix x = AnisotropicCloud(500, 6, &rng);
  auto z = WhitenMatrix(x, 1, WhiteningKind::kBatchNorm, 1e-8);
  ASSERT_TRUE(z.ok());
  const IsotropyDiagnostics diag = MeasureIsotropy(z.value());
  EXPECT_LT(diag.max_diag_error, 1e-4);
  EXPECT_GT(diag.max_offdiag_cov, 0.1);  // correlation survives
}

TEST(WhiteningTest, ZcaStaysClosestToOriginalAxes) {
  // ZCA is the minimal-rotation whitening: its output should correlate with
  // the input dimensions far more than PCA's.
  Rng rng(35);
  const Matrix x = AnisotropicCloud(600, 5, &rng);
  auto zca = WhitenMatrix(x, 1, WhiteningKind::kZca, 1e-8);
  auto pca = WhitenMatrix(x, 1, WhiteningKind::kPca, 1e-8);
  ASSERT_TRUE(zca.ok());
  ASSERT_TRUE(pca.ok());
  Matrix centered = x;
  linalg::CenterColumns(&centered);
  auto diag_corr = [&](const Matrix& z) {
    double corr = 0.0;
    for (std::size_t c = 0; c < z.cols(); ++c) {
      corr += std::fabs(linalg::CosineSimilarity(z.Col(c), centered.Col(c)));
    }
    return corr;
  };
  EXPECT_GT(diag_corr(zca.value()), diag_corr(pca.value()));
}

TEST(WhiteningTest, WhiteningKillsMeanCosine) {
  // The headline effect: anisotropic cloud with high mean pairwise cosine
  // becomes near-orthogonal after whitening (paper Sec. III-B vs IV-A).
  Rng rng(36);
  const Matrix x = AnisotropicCloud(400, 8, &rng);
  Rng m1(1), m2(2);
  const double cos_before = linalg::MeanPairwiseCosine(x, &m1);
  auto z = WhitenMatrix(x, 1, WhiteningKind::kZca, 1e-8);
  ASSERT_TRUE(z.ok());
  const double cos_after = linalg::MeanPairwiseCosine(z.value(), &m2);
  EXPECT_GT(cos_before, 0.5);
  EXPECT_LT(std::fabs(cos_after), 0.1);
}

TEST(WhiteningTest, FitRejectsTooFewRows) {
  EXPECT_FALSE(FitWhitening(Matrix(1, 4), WhiteningKind::kZca).ok());
}

TEST(WhiteningTest, ConditionNumberDropsToOne) {
  Rng rng(37);
  const Matrix x = AnisotropicCloud(500, 6, &rng);
  auto kappa_before = linalg::ConditionNumber(linalg::Covariance(x));
  auto z = WhitenMatrix(x, 1, WhiteningKind::kZca, 1e-8);
  ASSERT_TRUE(z.ok());
  auto kappa_after = linalg::ConditionNumber(linalg::Covariance(z.value()));
  ASSERT_TRUE(kappa_before.ok());
  ASSERT_TRUE(kappa_after.ok());
  EXPECT_GT(kappa_before.value(), 100.0);
  EXPECT_NEAR(kappa_after.value(), 1.0, 1e-2);
}

TEST(WhiteningTest, FitCarriesTheSpectrumItFactored) {
  // A ZCA or PCA fit hands back the eigenvalues of Sigma + eps I it built
  // phi from — all d of them, also when phi is truncated — so a caller that
  // needs the spectrum (the serving refit guard) never solves again.
  Rng rng(38);
  const std::size_t d = 6;
  const Matrix x = AnisotropicCloud(300, d, &rng);
  WhiteningOptions options;
  options.epsilon = 1e-6;
  auto oracle = linalg::SymmetricEigen(linalg::Covariance(x, options.epsilon));
  ASSERT_TRUE(oracle.ok());
  ASSERT_EQ(oracle.value().values.size(), d);
  for (const WhiteningKind kind : {WhiteningKind::kZca, WhiteningKind::kPca}) {
    for (const std::size_t rank : {std::size_t{0}, std::size_t{3}}) {
      SCOPED_TRACE(std::string(WhiteningKindName(kind)) +
                   " rank=" + std::to_string(rank));
      options.kind = kind;
      options.rank = rank;
      auto fitted = FitWhiteningAdvanced(x, options);
      ASSERT_TRUE(fitted.ok());
      // Bitwise: the very values the fit divided by, not a recomputation.
      EXPECT_EQ(fitted.value().spectrum, oracle.value().values);
    }
  }
  options.rank = 0;
  for (const WhiteningKind kind :
       {WhiteningKind::kCholesky, WhiteningKind::kBatchNorm}) {
    options.kind = kind;
    auto fitted = FitWhiteningAdvanced(x, options);
    ASSERT_TRUE(fitted.ok());
    EXPECT_TRUE(fitted.value().spectrum.empty()) << WhiteningKindName(kind);
  }
  options.kind = WhiteningKind::kZca;
  options.newton_iterations = 8;
  auto newton = FitWhiteningAdvanced(x, options);
  ASSERT_TRUE(newton.ok());
  EXPECT_TRUE(newton.value().spectrum.empty());
}

// ---------------------------------------------------------------------------
// Group (relaxed) whitening
// ---------------------------------------------------------------------------

class GroupWhiteningTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GroupWhiteningTest, WithinGroupDecorrelated) {
  const std::size_t groups = GetParam();
  Rng rng(38);
  const std::size_t d = 8;
  const Matrix x = AnisotropicCloud(500, d, &rng);
  // Tiny epsilon keeps the ridge bias (eps / lambda_min) below the test
  // tolerance even for this near-singular cloud.
  auto z = WhitenMatrix(x, groups, WhiteningKind::kZca, 1e-12);
  ASSERT_TRUE(z.ok());
  const Matrix cov = linalg::Covariance(z.value());
  const std::size_t gd = d / groups;
  // Tolerance accounts for the epsilon-ridge bias: the whitened covariance
  // is exactly I - eps * Phi Phi^T, which for near-singular groups leaves a
  // residual of order eps / lambda_min.
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t i = g * gd; i < (g + 1) * gd; ++i) {
      for (std::size_t j = g * gd; j < (g + 1) * gd; ++j) {
        EXPECT_NEAR(cov(i, j), i == j ? 1.0 : 0.0, 2e-3)
            << "group " << g << " (" << i << "," << j << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Groups, GroupWhiteningTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(GroupWhiteningTest2, RelaxedKeepsCrossGroupCorrelation) {
  Rng rng(39);
  const Matrix x = AnisotropicCloud(500, 8, &rng);
  auto z = WhitenMatrix(x, 4, WhiteningKind::kZca, 1e-8);
  ASSERT_TRUE(z.ok());
  const Matrix cov = linalg::Covariance(z.value());
  double max_cross = 0.0;
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 8; ++j)
      if (i / 2 != j / 2) max_cross = std::max(max_cross, std::fabs(cov(i, j)));
  EXPECT_GT(max_cross, 0.05);  // some cross-group correlation preserved
}

TEST(GroupWhiteningTest2, RelaxedPreservesMoreCosineStructure) {
  // Paper Fig. 4: weaker whitening (larger G) leaves item pairs more similar.
  Rng rng(40);
  const Matrix x = AnisotropicCloud(400, 8, &rng);
  Rng m1(1), m2(2);
  auto z1 = WhitenMatrix(x, 1, WhiteningKind::kZca, 1e-8);
  auto z4 = WhitenMatrix(x, 4, WhiteningKind::kZca, 1e-8);
  ASSERT_TRUE(z1.ok());
  ASSERT_TRUE(z4.ok());
  const double v1 =
      linalg::Variance(linalg::PairwiseCosines(z1.value(), &m1, 5000));
  const double v4 =
      linalg::Variance(linalg::PairwiseCosines(z4.value(), &m2, 5000));
  // Relaxed whitening keeps a broader cosine distribution.
  EXPECT_GT(v4, v1);
}

TEST(GroupWhiteningTest2, GroupsMustDivideDims) {
  GroupWhitening gw;
  const Matrix x(10, 8);
  EXPECT_FALSE(gw.Fit(x, 3, WhiteningKind::kZca).ok());
  EXPECT_FALSE(gw.Fit(x, 0, WhiteningKind::kZca).ok());
}

TEST(GroupWhiteningTest2, ApplyOnUnseenRows) {
  // Cold-start path: fit on one set, apply to held-out rows; held-out rows
  // should land in roughly the same standardized range.
  Rng rng(41);
  const Matrix all = AnisotropicCloud(600, 6, &rng);
  const Matrix fit_part = all.RowSlice(0, 500);
  const Matrix new_part = all.RowSlice(500, 600);
  GroupWhitening gw;
  ASSERT_TRUE(gw.Fit(fit_part, 1, WhiteningKind::kZca, 1e-8).ok());
  const Matrix z_new = gw.Apply(new_part);
  const Matrix cov = linalg::Covariance(z_new);
  for (std::size_t i = 0; i < cov.rows(); ++i) {
    EXPECT_GT(cov(i, i), 0.3);
    EXPECT_LT(cov(i, i), 3.0);
  }
}

// ---------------------------------------------------------------------------
// Flow whitening (BERT-flow surrogate)
// ---------------------------------------------------------------------------

TEST(FlowWhiteningTest, InverseNormalCdfKnownValues) {
  EXPECT_NEAR(FlowWhitening::InverseNormalCdf(0.5), 0.0, 1e-8);
  EXPECT_NEAR(FlowWhitening::InverseNormalCdf(0.975), 1.959964, 1e-4);
  EXPECT_NEAR(FlowWhitening::InverseNormalCdf(0.025), -1.959964, 1e-4);
}

TEST(FlowWhiteningTest, GaussianizesSkewedData) {
  Rng rng(42);
  // Log-normal-ish, heavily skewed input.
  Matrix x(500, 4);
  for (std::size_t i = 0; i < x.size(); ++i)
    x.data()[i] = std::exp(rng.Gaussian(0.0, 1.0));
  FlowWhitening flow;
  ASSERT_TRUE(flow.Fit(x, 3).ok());
  const Matrix z = flow.Apply(x);
  const IsotropyDiagnostics diag = MeasureIsotropy(z);
  EXPECT_LT(diag.max_diag_error, 0.1);
  EXPECT_LT(diag.max_offdiag_cov, 0.1);
  // Marginal skewness should be near zero after Gaussianization.
  for (std::size_t c = 0; c < 4; ++c) {
    const std::vector<double> col = z.Col(c);
    const double mean = linalg::Mean(col);
    const double sd = std::sqrt(linalg::Variance(col));
    double skew = 0.0;
    for (double v : col) skew += std::pow((v - mean) / sd, 3.0);
    skew /= static_cast<double>(col.size());
    EXPECT_LT(std::fabs(skew), 0.3) << "dim " << c;
  }
}

TEST(FlowWhiteningTest, ApplyOnNewDataClampsToSupport) {
  Rng rng(43);
  const Matrix x = AnisotropicCloud(300, 4, &rng);
  FlowWhitening flow;
  ASSERT_TRUE(flow.Fit(x, 2).ok());
  Matrix out_of_support(2, 4, 1e6);
  const Matrix z = flow.Apply(out_of_support);
  for (std::size_t i = 0; i < z.size(); ++i) {
    EXPECT_TRUE(std::isfinite(z.data()[i]));
  }
}

TEST(FlowWhiteningTest, RejectsTinyInput) {
  FlowWhitening flow;
  EXPECT_FALSE(flow.Fit(Matrix(4, 3)).ok());
}

// ---------------------------------------------------------------------------
// Parametric whitening
// ---------------------------------------------------------------------------

TEST(ParametricWhiteningTest, InitiallyCentersAtMean) {
  Rng rng(44);
  Matrix x = rng.GaussianMatrix(50, 4, 1.0);
  for (std::size_t r = 0; r < 50; ++r) x(r, 0) += 7.0;
  ParametricWhitening pw(4, 4, linalg::ColumnMean(x), &rng);
  const Matrix z = pw.Forward(x);
  // Output = centered * W, so the output mean is ~0 regardless of W.
  const std::vector<double> mean = linalg::ColumnMean(z);
  for (double m : mean) EXPECT_NEAR(m, 0.0, 1e-9);
}

TEST(ParametricWhiteningTest, GradCheck) {
  Rng rng(45);
  Matrix x = rng.GaussianMatrix(6, 3, 1.0);
  ParametricWhitening pw(3, 2, linalg::ColumnMean(x), &rng);
  const Matrix w = rng.GaussianMatrix(6, 2, 1.0);
  pw.Forward(x);
  std::vector<nn::Parameter*> params;
  pw.CollectParameters(&params);
  for (nn::Parameter* p : params) p->ZeroGrad();
  const Matrix dx = pw.Backward(w);
  auto loss = [&]() { return WeightedSum(pw.Forward(x), w); };
  EXPECT_LT(MaxInputGradError(&x, dx, loss), 1e-4);
  for (nn::Parameter* p : params)
    EXPECT_LT(MaxParamGradError(p, p->grad, loss), 1e-4) << p->name;
}

TEST(ParametricWhiteningTest, DoesNotGuaranteeDecorrelation) {
  // The paper's criticism of PW: a linear layer does not whiten by itself.
  Rng rng(46);
  const Matrix x = AnisotropicCloud(300, 6, &rng);
  ParametricWhitening pw(6, 6, linalg::ColumnMean(x), &rng);
  const Matrix z = pw.Forward(x);
  const IsotropyDiagnostics diag = MeasureIsotropy(z);
  EXPECT_GT(diag.max_offdiag_cov + diag.max_diag_error, 0.2);
}

// ---------------------------------------------------------------------------
// Projection heads and encoders
// ---------------------------------------------------------------------------

class HeadKindTest : public ::testing::TestWithParam<HeadKind> {};

TEST_P(HeadKindTest, ForwardShape) {
  Rng rng(47);
  ProjectionHead head(6, 4, GetParam(), &rng);
  const Matrix x = rng.GaussianMatrix(9, 6, 1.0);
  const Matrix y = head.Forward(x);
  EXPECT_EQ(y.rows(), 9u);
  EXPECT_EQ(y.cols(), 4u);
}

TEST_P(HeadKindTest, GradCheck) {
  Rng rng(48);
  ProjectionHead head(4, 3, GetParam(), &rng);
  Matrix x = rng.GaussianMatrix(5, 4, 1.0);
  const Matrix w = rng.GaussianMatrix(5, 3, 1.0);
  head.Forward(x);
  std::vector<nn::Parameter*> params;
  head.CollectParameters(&params);
  for (nn::Parameter* p : params) p->ZeroGrad();
  const Matrix dx = head.Backward(w);
  auto loss = [&]() { return WeightedSum(head.Forward(x), w); };
  EXPECT_LT(MaxInputGradError(&x, dx, loss), 2e-4);
  for (nn::Parameter* p : params)
    EXPECT_LT(MaxParamGradError(p, p->grad, loss), 2e-4) << p->name;
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// An encoder's Forward(false) between a step's Forward(true) and Backward
// leaves every gradient bitwise where an uninterrupted step on `twin` (built
// from the same seed) puts it. The eval forward runs under shifted
// parameters, so a cache it wrote would hold activations the training
// forward never produced.
void ExpectEvalForwardWritesNoCache(ItemEncoder* enc, ItemEncoder* twin,
                                    const Matrix& dv) {
  std::vector<nn::Parameter*> params;
  enc->CollectParameters(&params);
  std::vector<nn::Parameter*> twin_params;
  twin->CollectParameters(&twin_params);
  ASSERT_EQ(params.size(), twin_params.size());
  for (nn::Parameter* p : params) p->ZeroGrad();
  for (nn::Parameter* p : twin_params) p->ZeroGrad();

  enc->Forward(true);
  std::vector<Matrix> saved;
  for (nn::Parameter* p : params) {
    saved.push_back(p->value);
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      p->value.data()[i] += 0.25;
    }
  }
  EXPECT_EQ(enc->Forward(false).rows(), enc->num_items());
  for (std::size_t i = 0; i < params.size(); ++i) params[i]->value = saved[i];
  enc->Backward(dv);

  twin->Forward(true);
  twin->Backward(dv);
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_TRUE(SameBits(params[i]->grad, twin_params[i]->grad))
        << params[i]->name;
  }
}

// The eval forward is the training forward's arithmetic without its caches:
// bitwise equal outputs, and a ForwardEval between a step's Forward and
// Backward leaves the gradients bitwise where an uninterrupted step puts
// them.
TEST_P(HeadKindTest, ForwardEvalMatchesForwardBitwiseAndWritesNoCache) {
  Rng rng_a(50);
  Rng rng_b(50);
  ProjectionHead head(6, 4, GetParam(), &rng_a);
  ProjectionHead twin(6, 4, GetParam(), &rng_b);
  Rng data_rng(51);
  const Matrix x = data_rng.GaussianMatrix(9, 6, 1.0);
  const Matrix other = data_rng.GaussianMatrix(13, 6, 1.0);
  const Matrix dy = data_rng.GaussianMatrix(9, 4, 1.0);
  EXPECT_TRUE(SameBits(head.ForwardEval(x), head.Forward(x)));
  EXPECT_TRUE(SameBits(head.ForwardEval(other), head.Forward(other)));

  std::vector<nn::Parameter*> params;
  head.CollectParameters(&params);
  std::vector<nn::Parameter*> twin_params;
  twin.CollectParameters(&twin_params);
  for (nn::Parameter* p : params) p->ZeroGrad();
  for (nn::Parameter* p : twin_params) p->ZeroGrad();
  head.Forward(x);
  EXPECT_EQ(head.ForwardEval(other).rows(), 13u);
  const Matrix dx = head.Backward(dy);
  twin.Forward(x);
  EXPECT_TRUE(SameBits(dx, twin.Backward(dy)));
  ASSERT_EQ(params.size(), twin_params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_TRUE(SameBits(params[i]->grad, twin_params[i]->grad))
        << params[i]->name;
  }
}

TEST_P(HeadKindTest, ParameterCountPositive) {
  Rng rng(49);
  ProjectionHead head(6, 4, GetParam(), &rng);
  std::vector<nn::Parameter*> params;
  head.CollectParameters(&params);
  EXPECT_FALSE(params.empty());
}

INSTANTIATE_TEST_SUITE_P(AllHeads, HeadKindTest,
                         ::testing::Values(HeadKind::kLinear, HeadKind::kMlp1,
                                           HeadKind::kMlp2, HeadKind::kMlp3,
                                           HeadKind::kMoe));

TEST(HeadKindTest2, DeeperHeadsHaveMoreParameters) {
  Rng rng(50);
  auto count = [&rng](HeadKind kind) {
    ProjectionHead head(8, 4, kind, &rng);
    std::vector<nn::Parameter*> params;
    head.CollectParameters(&params);
    std::size_t n = 0;
    for (nn::Parameter* p : params) n += p->NumElements();
    return n;
  };
  EXPECT_LT(count(HeadKind::kLinear), count(HeadKind::kMlp1));
  EXPECT_LT(count(HeadKind::kMlp1), count(HeadKind::kMlp2));
  EXPECT_LT(count(HeadKind::kMlp2), count(HeadKind::kMlp3));
}

TEST(TextFeatureEncoderTest, ShapeAndGradientFlow) {
  Rng rng(51);
  const Matrix features = rng.GaussianMatrix(12, 6, 1.0);
  TextFeatureEncoder enc(features, 4, HeadKind::kMlp2, &rng);
  EXPECT_EQ(enc.num_items(), 12u);
  EXPECT_EQ(enc.output_dim(), 4u);
  // Forward(false) is the cache-free eval; Backward needs Forward(true).
  const Matrix v = enc.Forward(true);
  EXPECT_EQ(v.rows(), 12u);
  EXPECT_TRUE(SameBits(enc.Forward(false), v));
  std::vector<nn::Parameter*> params;
  enc.CollectParameters(&params);
  for (nn::Parameter* p : params) p->ZeroGrad();
  enc.Backward(Matrix(12, 4, 1.0));
  double grad_norm = 0.0;
  for (nn::Parameter* p : params) grad_norm += p->grad.FrobeniusNorm();
  EXPECT_GT(grad_norm, 0.0);
}

class EnsembleKindTest : public ::testing::TestWithParam<EnsembleKind> {};

TEST_P(EnsembleKindTest, ForwardShape) {
  Rng rng(52);
  const Matrix z1 = rng.GaussianMatrix(10, 6, 1.0);
  const Matrix z2 = rng.GaussianMatrix(10, 6, 1.0);
  WhitenRecPlusEncoder enc(z1, z2, 4, GetParam(), HeadKind::kMlp2, &rng);
  const Matrix v = enc.Forward(false);
  EXPECT_EQ(v.rows(), 10u);
  EXPECT_EQ(v.cols(), 4u);
}

TEST_P(EnsembleKindTest, EvalForwardMatchesTrainForwardBitwise) {
  Rng rng(52);
  const Matrix z1 = rng.GaussianMatrix(10, 6, 1.0);
  const Matrix z2 = rng.GaussianMatrix(10, 6, 1.0);
  WhitenRecPlusEncoder enc(z1, z2, 4, GetParam(), HeadKind::kMlp2, &rng);
  EXPECT_TRUE(SameBits(enc.Forward(false), enc.Forward(true)));
}

TEST_P(EnsembleKindTest, GradCheckParameters) {
  Rng rng(53);
  const Matrix z1 = rng.GaussianMatrix(4, 3, 1.0);
  const Matrix z2 = rng.GaussianMatrix(4, 3, 1.0);
  WhitenRecPlusEncoder enc(z1, z2, 2, GetParam(), HeadKind::kMlp1, &rng);
  const Matrix w = rng.GaussianMatrix(4, 2, 1.0);
  enc.Forward(true);
  std::vector<nn::Parameter*> params;
  enc.CollectParameters(&params);
  for (nn::Parameter* p : params) p->ZeroGrad();
  enc.Backward(w);
  auto loss = [&]() { return WeightedSum(enc.Forward(true), w); };
  for (nn::Parameter* p : params)
    EXPECT_LT(MaxParamGradError(p, p->grad, loss), 2e-4) << p->name;
}

TEST_P(EnsembleKindTest, EvalForwardWritesNoCache) {
  Rng data_rng(59);
  const Matrix z1 = data_rng.GaussianMatrix(7, 5, 1.0);
  const Matrix z2 = data_rng.GaussianMatrix(7, 5, 1.0);
  const Matrix dv = data_rng.GaussianMatrix(7, 3, 1.0);
  Rng rng_a(60);
  Rng rng_b(60);
  WhitenRecPlusEncoder enc(z1, z2, 3, GetParam(), HeadKind::kMlp1, &rng_a);
  WhitenRecPlusEncoder twin(z1, z2, 3, GetParam(), HeadKind::kMlp1, &rng_b);
  ExpectEvalForwardWritesNoCache(&enc, &twin, dv);
}

// Checkpoints match tensors by name, so every parameter, the kAttn scorer
// included, carries the encoder's name as its prefix.
TEST_P(EnsembleKindTest, ParameterNamesCarryTheEncoderName) {
  Rng rng(66);
  const Matrix z = rng.GaussianMatrix(4, 3, 1.0);
  WhitenRecPlusEncoder enc(z, z, 2, GetParam(), HeadKind::kMlp1, &rng, "plus");
  std::vector<nn::Parameter*> params;
  enc.CollectParameters(&params);
  for (nn::Parameter* p : params) {
    EXPECT_EQ(p->name.rfind("plus.", 0), 0u) << p->name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllEnsembles, EnsembleKindTest,
                         ::testing::Values(EnsembleKind::kSum,
                                           EnsembleKind::kConcat,
                                           EnsembleKind::kAttn));

TEST(WhitenRecFactoryTest, MakeWhitenRecEncoder) {
  Rng rng(54);
  const Matrix features = AnisotropicCloud(60, 8, &rng);
  WhitenRecConfig config;
  config.out_dim = 4;
  auto enc = MakeWhitenRecEncoder(features, config, &rng);
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(enc.value()->num_items(), 60u);
  EXPECT_EQ(enc.value()->output_dim(), 4u);
}

TEST(WhitenRecFactoryTest, MakeWhitenRecPlusWithRawBranch) {
  Rng rng(55);
  const Matrix features = AnisotropicCloud(60, 8, &rng);
  WhitenRecConfig config;
  config.out_dim = 4;
  config.relaxed_groups = 0;  // Raw branch (Fig. 8)
  auto enc = MakeWhitenRecPlusEncoder(features, config, &rng);
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(enc.value()->num_items(), 60u);
}

TEST(WhitenRecFactoryTest, InvalidGroupsPropagateError) {
  Rng rng(56);
  const Matrix features = AnisotropicCloud(60, 8, &rng);
  WhitenRecConfig config;
  config.full_groups = 3;  // does not divide 8
  EXPECT_FALSE(MakeWhitenRecEncoder(features, config, &rng).ok());
}

TEST(MoEPwEncoderTest, ForwardShapeAndGradFlow) {
  Rng rng(57);
  const Matrix features = rng.GaussianMatrix(15, 6, 1.0);
  MoEPwEncoder enc(features, 4, &rng);
  const Matrix v = enc.Forward(true);
  EXPECT_EQ(v.rows(), 15u);
  EXPECT_EQ(v.cols(), 4u);
  std::vector<nn::Parameter*> params;
  enc.CollectParameters(&params);
  for (nn::Parameter* p : params) p->ZeroGrad();
  enc.Backward(Matrix(15, 4, 0.5));
  double norm = 0.0;
  for (nn::Parameter* p : params) norm += p->grad.FrobeniusNorm();
  EXPECT_GT(norm, 0.0);
}

TEST(MoEPwEncoderTest, EvalForwardMatchesTrainForwardBitwise) {
  Rng rng(57);
  const Matrix features = rng.GaussianMatrix(15, 6, 1.0);
  MoEPwEncoder enc(features, 4, &rng);
  EXPECT_TRUE(SameBits(enc.Forward(false), enc.Forward(true)));
}

TEST(MoEPwEncoderTest, GradCheck) {
  Rng rng(61);
  const Matrix features = rng.GaussianMatrix(5, 4, 1.0);
  MoEPwEncoder enc(features, 3, &rng);
  const Matrix w = rng.GaussianMatrix(5, 3, 1.0);
  enc.Forward(true);
  std::vector<nn::Parameter*> params;
  enc.CollectParameters(&params);
  // The gate's W and b, then beta and W of every PW expert.
  ASSERT_EQ(params.size(),
            2u + 2u * GatedMixture<ParametricWhitening>::kNumExperts);
  for (nn::Parameter* p : params) p->ZeroGrad();
  enc.Backward(w);
  auto loss = [&]() { return WeightedSum(enc.Forward(true), w); };
  for (nn::Parameter* p : params)
    EXPECT_LT(MaxParamGradError(p, p->grad, loss), 2e-4) << p->name;
}

TEST(MoEPwEncoderTest, EvalForwardWritesNoCache) {
  Rng data_rng(62);
  const Matrix features = data_rng.GaussianMatrix(9, 5, 1.0);
  const Matrix dv = data_rng.GaussianMatrix(9, 3, 1.0);
  Rng rng_a(63);
  Rng rng_b(63);
  MoEPwEncoder enc(features, 3, &rng_a);
  MoEPwEncoder twin(features, 3, &rng_b);
  ExpectEvalForwardWritesNoCache(&enc, &twin, dv);
}

TEST(PwEnsembleEncoderTest, EvalForwardMatchesTrainForwardBitwise) {
  Rng rng(58);
  const Matrix features = rng.GaussianMatrix(5, 4, 1.0);
  PwEnsembleEncoder enc(features, 3, HeadKind::kMlp1, &rng);
  EXPECT_TRUE(SameBits(enc.Forward(false), enc.Forward(true)));
}

TEST(PwEnsembleEncoderTest, GradCheck) {
  Rng rng(58);
  const Matrix features = rng.GaussianMatrix(5, 4, 1.0);
  PwEnsembleEncoder enc(features, 3, HeadKind::kMlp1, &rng);
  const Matrix w = rng.GaussianMatrix(5, 3, 1.0);
  enc.Forward(true);
  std::vector<nn::Parameter*> params;
  enc.CollectParameters(&params);
  for (nn::Parameter* p : params) p->ZeroGrad();
  enc.Backward(w);
  auto loss = [&]() { return WeightedSum(enc.Forward(true), w); };
  for (nn::Parameter* p : params)
    EXPECT_LT(MaxParamGradError(p, p->grad, loss), 2e-4) << p->name;
}

TEST(PwEnsembleEncoderTest, EvalForwardWritesNoCache) {
  Rng data_rng(64);
  const Matrix features = data_rng.GaussianMatrix(7, 4, 1.0);
  const Matrix dv = data_rng.GaussianMatrix(7, 3, 1.0);
  Rng rng_a(65);
  Rng rng_b(65);
  PwEnsembleEncoder enc(features, 3, HeadKind::kMlp1, &rng_a);
  PwEnsembleEncoder twin(features, 3, HeadKind::kMlp1, &rng_b);
  ExpectEvalForwardWritesNoCache(&enc, &twin, dv);
}

TEST(NamesTest, HumanReadableNames) {
  EXPECT_STREQ(WhiteningKindName(WhiteningKind::kZca), "ZCA");
  EXPECT_STREQ(WhiteningKindName(WhiteningKind::kCholesky), "CD");
  EXPECT_STREQ(HeadKindName(HeadKind::kMlp2), "MLP-2");
  EXPECT_STREQ(EnsembleKindName(EnsembleKind::kSum), "Sum");
}

// ---------------------------------------------------------------------------
// Rank-k truncated whitening (compressed inference, DESIGN.md §12)
// ---------------------------------------------------------------------------

TEST(TruncatedWhiteningTest, TruncatedCovarianceIsIdentityK) {
  Rng rng(71);
  const Matrix x = AnisotropicCloud(600, 8, &rng);
  WhiteningOptions options;
  options.kind = WhiteningKind::kPca;
  options.epsilon = 1e-8;
  options.rank = 3;
  auto fitted = FitWhiteningAdvanced(x, options);
  ASSERT_TRUE(fitted.ok());
  EXPECT_EQ(fitted.value().out_dims(), 3u);
  const Matrix z = ApplyWhitening(fitted.value(), x);
  ASSERT_EQ(z.cols(), 3u);
  const IsotropyDiagnostics diag = MeasureIsotropy(z);
  EXPECT_LT(diag.max_diag_error, 1e-4);
  EXPECT_LT(diag.max_offdiag_cov, 1e-4);
}

TEST(TruncatedWhiteningTest, TruncatedPhiIsPrefixOfFullPcaPhi) {
  Rng rng(72);
  const Matrix x = AnisotropicCloud(500, 6, &rng);
  auto full = FitWhitening(x, WhiteningKind::kPca, 1e-6);
  ASSERT_TRUE(full.ok());
  WhiteningOptions options;
  options.kind = WhiteningKind::kPca;
  options.epsilon = 1e-6;
  options.rank = 2;
  auto truncated = FitWhiteningAdvanced(x, options);
  ASSERT_TRUE(truncated.ok());
  // SymmetricEigen orders eigenvalues descending, so the rank-k map is the
  // leading rows of the full PCA map BITWISE — what lets bench_compression
  // slice columns of the full-rank whitened table instead of refitting.
  ASSERT_EQ(truncated.value().phi.rows(), 2u);
  for (std::size_t i = 0; i < 2u; ++i) {
    for (std::size_t j = 0; j < 6u; ++j) {
      EXPECT_EQ(truncated.value().phi(i, j), full.value().phi(i, j));
    }
  }
}

TEST(TruncatedWhiteningTest, ZcaTruncationDegeneratesToPcaBasis) {
  Rng rng(73);
  const Matrix x = AnisotropicCloud(500, 6, &rng);
  WhiteningOptions zca;
  zca.kind = WhiteningKind::kZca;
  zca.epsilon = 1e-6;
  zca.rank = 3;
  WhiteningOptions pca = zca;
  pca.kind = WhiteningKind::kPca;
  auto a = FitWhiteningAdvanced(x, zca);
  auto b = FitWhiteningAdvanced(x, pca);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const Matrix diff = linalg::Sub(a.value().phi, b.value().phi);
  EXPECT_EQ(diff.MaxAbs(), 0.0);
}

TEST(TruncatedWhiteningTest, FullRankValuesLeaveFitUntouched) {
  Rng rng(74);
  const Matrix x = AnisotropicCloud(400, 5, &rng);
  auto reference = FitWhitening(x, WhiteningKind::kZca, 1e-6);
  ASSERT_TRUE(reference.ok());
  for (std::size_t rank : {std::size_t{0}, std::size_t{5}}) {
    WhiteningOptions options;
    options.kind = WhiteningKind::kZca;
    options.epsilon = 1e-6;
    options.rank = rank;
    auto fitted = FitWhiteningAdvanced(x, options);
    ASSERT_TRUE(fitted.ok());
    EXPECT_EQ(fitted.value().out_dims(), 5u);
    const Matrix diff = linalg::Sub(fitted.value().phi, reference.value().phi);
    EXPECT_EQ(diff.MaxAbs(), 0.0) << "rank=" << rank;
  }
}

// PCA reconstruction from the truncated fit: recover the orthonormal basis
// by normalizing phi's rows (phi_i = u_i / sqrt(lambda_i)), project the
// centered data, and measure the squared residual. Adding a dimension can
// only remove the newly-explained component from the residual, so the error
// must be non-increasing in k.
TEST(TruncatedWhiteningTest, ReconstructionErrorMonotoneInRank) {
  Rng rng(75);
  const std::size_t d = 8;
  const Matrix x = AnisotropicCloud(600, d, &rng);
  double prev_error = -1.0;
  std::vector<double> errors;
  for (std::size_t rank = 1; rank <= d; ++rank) {
    WhiteningOptions options;
    options.kind = WhiteningKind::kPca;
    options.epsilon = 0.0;
    options.rank = rank;
    auto fitted = FitWhiteningAdvanced(x, options);
    ASSERT_TRUE(fitted.ok());
    const FittedWhitening& w = fitted.value();
    // Orthonormal basis rows u_i from phi rows.
    Matrix basis = w.phi;
    for (std::size_t i = 0; i < basis.rows(); ++i) {
      double norm = 0.0;
      for (std::size_t j = 0; j < d; ++j) norm += basis(i, j) * basis(i, j);
      norm = std::sqrt(norm);
      ASSERT_GT(norm, 0.0);
      for (std::size_t j = 0; j < d; ++j) basis(i, j) /= norm;
    }
    double error = 0.0;
    for (std::size_t r = 0; r < x.rows(); ++r) {
      std::vector<double> centered(d);
      for (std::size_t j = 0; j < d; ++j) {
        centered[j] = x(r, j) - w.mean[j];
      }
      std::vector<double> recon(d, 0.0);
      for (std::size_t i = 0; i < basis.rows(); ++i) {
        double coeff = 0.0;
        for (std::size_t j = 0; j < d; ++j) coeff += basis(i, j) * centered[j];
        for (std::size_t j = 0; j < d; ++j) recon[j] += coeff * basis(i, j);
      }
      for (std::size_t j = 0; j < d; ++j) {
        const double resid = centered[j] - recon[j];
        error += resid * resid;
      }
    }
    if (prev_error >= 0.0) {
      EXPECT_LE(error, prev_error + 1e-9) << "rank=" << rank;
    }
    prev_error = error;
    errors.push_back(error);
  }
  // Full rank reconstructs (numerically) exactly; rank 1 leaves most of the
  // anisotropic cloud unexplained, so the decrease is also non-trivial.
  EXPECT_LT(errors.back(), 1e-12 * errors.front());
}

TEST(TruncatedWhiteningTest, RejectsUnsupportedCombinations) {
  Rng rng(76);
  const Matrix x = AnisotropicCloud(300, 6, &rng);
  WhiteningOptions options;
  options.epsilon = 1e-6;
  options.rank = 3;
  options.kind = WhiteningKind::kCholesky;
  EXPECT_FALSE(FitWhiteningAdvanced(x, options).ok());
  options.kind = WhiteningKind::kBatchNorm;
  EXPECT_FALSE(FitWhiteningAdvanced(x, options).ok());
  options.kind = WhiteningKind::kZca;
  options.newton_iterations = 8;
  EXPECT_FALSE(FitWhiteningAdvanced(x, options).ok());
  options.newton_iterations = 0;
  options.rank = 7;  // > d
  EXPECT_FALSE(FitWhiteningAdvanced(x, options).ok());
  // Group whitening only truncates the single-group (full) branch.
  GroupWhitening group;
  EXPECT_FALSE(group.Fit(x, 2, WhiteningKind::kZca, 1e-6, 3).ok());
  EXPECT_TRUE(group.Fit(x, 1, WhiteningKind::kZca, 1e-6, 3).ok());
  EXPECT_EQ(group.Apply(x).cols(), 3u);
}

TEST(TruncatedWhiteningTest, IncrementalTruncatedFitMatchesBatch) {
  Rng rng(77);
  const Matrix x = AnisotropicCloud(300, 6, &rng);
  IncrementalWhitening acc(6);
  acc.Add(x.RowSlice(0, 111));
  acc.Add(x.RowSlice(111, 300));
  WhiteningOptions options;
  options.kind = WhiteningKind::kPca;
  options.epsilon = 1e-6;
  options.rank = 3;
  auto inc = acc.Fit(options);
  auto batch = FitWhiteningAdvanced(x, options);
  ASSERT_TRUE(inc.ok());
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(inc.value().out_dims(), 3u);
  const Matrix diff = linalg::Sub(inc.value().phi, batch.value().phi);
  EXPECT_LT(diff.MaxAbs(), 1e-6 * std::max(1.0, batch.value().phi.MaxAbs()));
}

TEST(TruncatedWhiteningTest, EncoderFactoryHonorsWhitenK) {
  Rng rng(78);
  const Matrix features = AnisotropicCloud(80, 8, &rng);
  WhitenRecConfig config;
  config.out_dim = 4;
  config.head = HeadKind::kLinear;
  config.whiten_k = 3;
  auto encoder = MakeWhitenRecEncoder(features, config, &rng);
  ASSERT_TRUE(encoder.ok());
  auto* text = static_cast<TextFeatureEncoder*>(encoder.value().get());
  EXPECT_EQ(text->features().cols(), 3u);
  EXPECT_EQ(text->output_dim(), 4u);
  // WhitenRec+ needs equal branch widths; truncation is rejected up front.
  EXPECT_FALSE(MakeWhitenRecPlusEncoder(features, config, &rng).ok());
}

}  // namespace
}  // namespace whitenrec
