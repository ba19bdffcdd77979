#include <cmath>

#include <gtest/gtest.h>

#include "core/parallel.h"
#include "grad_check.h"
#include "linalg/rng.h"
#include "nn/attention.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/tensor.h"
#include "nn/transformer.h"
#include "scoped_knobs.h"

namespace whitenrec {
namespace nn {
namespace {

using linalg::Matrix;
using linalg::Rng;
using ::whitenrec::testing::MaxInputGradError;
using ::whitenrec::testing::MaxParamGradError;
using ::whitenrec::testing::WeightedSum;

constexpr double kGradTol = 1e-4;

// ---------------------------------------------------------------------------
// Tensor kernels
// ---------------------------------------------------------------------------

TEST(TensorTest, RowSoftmaxSumsToOne) {
  Rng rng(1);
  Matrix m = rng.GaussianMatrix(5, 7, 3.0);
  RowSoftmaxInPlace(&m);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < m.cols(); ++c) {
      EXPECT_GT(m(r, c), 0.0);
      sum += m(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(TensorTest, RowSoftmaxHandlesLargeLogits) {
  Matrix m = Matrix::FromRows({{1000.0, 1001.0}});
  RowSoftmaxInPlace(&m);
  EXPECT_NEAR(m(0, 0) + m(0, 1), 1.0, 1e-12);
  EXPECT_GT(m(0, 1), m(0, 0));
}

TEST(TensorTest, SoftmaxBackwardRowSumsToZero) {
  // Softmax Jacobian rows are orthogonal to the all-ones vector.
  Matrix p = Matrix::FromRows({{0.2, 0.3, 0.5}});
  const double dp[] = {1.0, -2.0, 0.7};
  double ds[3];
  SoftmaxBackwardRow(p.RowPtr(0), dp, 3, ds);
  EXPECT_NEAR(ds[0] + ds[1] + ds[2], 0.0, 1e-12);
}

TEST(TensorTest, ColumnSum) {
  const Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  const std::vector<double> s = ColumnSum(m);
  EXPECT_DOUBLE_EQ(s[0], 4.0);
  EXPECT_DOUBLE_EQ(s[1], 6.0);
}

TEST(TensorTest, RowL2Normalize) {
  Matrix m = Matrix::FromRows({{3, 4}, {0, 0}});
  RowL2NormalizeInPlace(&m);
  EXPECT_NEAR(m(0, 0), 0.6, 1e-12);
  EXPECT_NEAR(m(0, 1), 0.8, 1e-12);
  EXPECT_DOUBLE_EQ(m(1, 0), 0.0);  // zero row untouched
}

TEST(TensorTest, GatherScatterRoundTrip) {
  const Matrix table = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  const std::vector<std::size_t> idx = {2, 0, 2};
  const Matrix gathered = GatherRows(table, idx);
  EXPECT_DOUBLE_EQ(gathered(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(gathered(1, 1), 2.0);

  Matrix grad(3, 2);
  ScatterAddRows(gathered, idx, &grad);
  // Row 2 receives two contributions of (5,6).
  EXPECT_DOUBLE_EQ(grad(2, 0), 10.0);
  EXPECT_DOUBLE_EQ(grad(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(grad(1, 0), 0.0);
}

// ---------------------------------------------------------------------------
// Layer gradient checks
// ---------------------------------------------------------------------------

TEST(LinearTest, ForwardKnownValues) {
  Rng rng(2);
  Linear fc(2, 2, &rng);
  fc.weight().value = Matrix::FromRows({{1, 0}, {0, 2}});
  fc.bias().value = Matrix::FromRows({{10, 20}});
  const Matrix y = fc.Forward(Matrix::FromRows({{3, 4}}));
  EXPECT_DOUBLE_EQ(y(0, 0), 13.0);
  EXPECT_DOUBLE_EQ(y(0, 1), 28.0);
}

TEST(LinearTest, GradCheck) {
  Rng rng(3);
  Linear fc(4, 3, &rng);
  Matrix x = rng.GaussianMatrix(5, 4, 1.0);
  const Matrix w = rng.GaussianMatrix(5, 3, 1.0);

  const Matrix out = fc.Forward(x);
  fc.weight().ZeroGrad();
  fc.bias().ZeroGrad();
  const Matrix dx = fc.Backward(w);

  auto loss = [&]() { return WeightedSum(fc.Forward(x), w); };
  EXPECT_LT(MaxParamGradError(&fc.weight(), fc.weight().grad, loss), kGradTol);
  EXPECT_LT(MaxParamGradError(&fc.bias(), fc.bias().grad, loss), kGradTol);
  EXPECT_LT(MaxInputGradError(&x, dx, loss), kGradTol);
  (void)out;
}

TEST(ReLUTest, ForwardClampsNegative) {
  ReLU relu;
  const Matrix y = relu.Forward(Matrix::FromRows({{-1, 2}, {0, -3}}));
  EXPECT_DOUBLE_EQ(y(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(y(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(y(1, 1), 0.0);
}

TEST(ReLUTest, GradCheck) {
  Rng rng(4);
  ReLU relu;
  // Keep activations away from the kink for finite differences.
  Matrix x = rng.GaussianMatrix(4, 5, 1.0);
  for (std::size_t i = 0; i < x.size(); ++i)
    if (std::fabs(x.data()[i]) < 0.05) x.data()[i] = 0.2;
  const Matrix w = rng.GaussianMatrix(4, 5, 1.0);
  relu.Forward(x);
  const Matrix dx = relu.Backward(w);
  auto loss = [&]() { return WeightedSum(relu.Forward(x), w); };
  EXPECT_LT(MaxInputGradError(&x, dx, loss), kGradTol);
}

TEST(DropoutTest, EvalModeIsIdentity) {
  Rng rng(5);
  Dropout drop(0.5, &rng);
  const Matrix x = rng.GaussianMatrix(3, 3, 1.0);
  const Matrix y = drop.Forward(x, /*train=*/false);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_DOUBLE_EQ(y.data()[i], x.data()[i]);
}

TEST(DropoutTest, TrainModePreservesExpectation) {
  Rng rng(6);
  Dropout drop(0.3, &rng);
  const Matrix x(200, 50, 1.0);
  const Matrix y = drop.Forward(x, /*train=*/true);
  double mean = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) mean += y.data()[i];
  mean /= static_cast<double>(y.size());
  EXPECT_NEAR(mean, 1.0, 0.05);  // inverted dropout keeps the expectation
}

TEST(DropoutTest, BackwardUsesSameMask) {
  Rng rng(7);
  Dropout drop(0.4, &rng);
  const Matrix x(4, 4, 1.0);
  const Matrix y = drop.Forward(x, /*train=*/true);
  const Matrix dy(4, 4, 1.0);
  const Matrix dx = drop.Backward(dy);
  for (std::size_t i = 0; i < y.size(); ++i) {
    // Gradient passes exactly where the activation passed.
    EXPECT_DOUBLE_EQ(dx.data()[i], y.data()[i]);
  }
}

TEST(LayerNormTest, OutputNormalized) {
  Rng rng(8);
  LayerNorm ln(6);
  const Matrix x = rng.GaussianMatrix(3, 6, 5.0);
  const Matrix y = ln.Forward(x);
  for (std::size_t r = 0; r < y.rows(); ++r) {
    double mean = 0.0, var = 0.0;
    for (std::size_t c = 0; c < 6; ++c) mean += y(r, c);
    mean /= 6.0;
    for (std::size_t c = 0; c < 6; ++c)
      var += (y(r, c) - mean) * (y(r, c) - mean);
    var /= 6.0;
    EXPECT_NEAR(mean, 0.0, 1e-9);
    EXPECT_NEAR(var, 1.0, 1e-6);
  }
}

TEST(LayerNormTest, GradCheck) {
  Rng rng(9);
  LayerNorm ln(4);
  // Non-trivial gamma/beta.
  ln.gamma().value = rng.GaussianMatrix(1, 4, 1.0);
  ln.beta().value = rng.GaussianMatrix(1, 4, 1.0);
  Matrix x = rng.GaussianMatrix(3, 4, 1.0);
  const Matrix w = rng.GaussianMatrix(3, 4, 1.0);
  ln.Forward(x);
  ln.gamma().ZeroGrad();
  ln.beta().ZeroGrad();
  const Matrix dx = ln.Backward(w);
  auto loss = [&]() { return WeightedSum(ln.Forward(x), w); };
  EXPECT_LT(MaxParamGradError(&ln.gamma(), ln.gamma().grad, loss), kGradTol);
  EXPECT_LT(MaxParamGradError(&ln.beta(), ln.beta().grad, loss), kGradTol);
  EXPECT_LT(MaxInputGradError(&x, dx, loss), kGradTol);
}

TEST(EmbeddingTest, GradCheck) {
  Rng rng(10);
  Embedding emb(6, 3, &rng);
  const std::vector<std::size_t> idx = {1, 4, 1, 0};
  const Matrix w = rng.GaussianMatrix(4, 3, 1.0);
  emb.Forward(idx);
  emb.table().ZeroGrad();
  emb.Backward(w);
  auto loss = [&]() { return WeightedSum(emb.Forward(idx), w); };
  EXPECT_LT(MaxParamGradError(&emb.table(), emb.table().grad, loss), kGradTol);
}

TEST(AttentionTest, CausalityHoldsInForward) {
  // Changing a later input must not affect earlier outputs.
  Rng rng(11);
  MultiHeadSelfAttention attn(8, 2, &rng);
  Matrix x = rng.GaussianMatrix(6, 8, 1.0);  // batch=1, L=6
  const Matrix y1 = attn.Forward(x, 1, 6);
  x(5, 3) += 10.0;  // perturb the last position only
  const Matrix y2 = attn.Forward(x, 1, 6);
  for (std::size_t t = 0; t < 5; ++t)
    for (std::size_t c = 0; c < 8; ++c)
      EXPECT_NEAR(y1(t, c), y2(t, c), 1e-12) << "position " << t;
}

TEST(AttentionTest, GradCheckInput) {
  Rng rng(12);
  MultiHeadSelfAttention attn(4, 2, &rng);
  Matrix x = rng.GaussianMatrix(6, 4, 0.7);  // batch=2, L=3
  const Matrix w = rng.GaussianMatrix(6, 4, 1.0);
  attn.Forward(x, 2, 3);
  std::vector<Parameter*> params;
  attn.CollectParameters(&params);
  for (Parameter* p : params) p->ZeroGrad();
  const Matrix dx = attn.Backward(w);
  auto loss = [&]() { return WeightedSum(attn.Forward(x, 2, 3), w); };
  EXPECT_LT(MaxInputGradError(&x, dx, loss), kGradTol);
}

TEST(AttentionTest, GradCheckParameters) {
  Rng rng(13);
  MultiHeadSelfAttention attn(4, 1, &rng);
  Matrix x = rng.GaussianMatrix(4, 4, 0.7);  // batch=1, L=4
  const Matrix w = rng.GaussianMatrix(4, 4, 1.0);
  attn.Forward(x, 1, 4);
  std::vector<Parameter*> params;
  attn.CollectParameters(&params);
  for (Parameter* p : params) p->ZeroGrad();
  attn.Backward(w);
  auto loss = [&]() { return WeightedSum(attn.Forward(x, 1, 4), w); };
  for (Parameter* p : params) {
    EXPECT_LT(MaxParamGradError(p, p->grad, loss), kGradTol) << p->name;
  }
}

TEST(FeedForwardTest, GradCheck) {
  Rng rng(14);
  FeedForward ffn(3, 5, &rng);
  Matrix x = rng.GaussianMatrix(4, 3, 1.0);
  const Matrix w = rng.GaussianMatrix(4, 3, 1.0);
  ffn.Forward(x);
  std::vector<Parameter*> params;
  ffn.CollectParameters(&params);
  for (Parameter* p : params) p->ZeroGrad();
  const Matrix dx = ffn.Backward(w);
  auto loss = [&]() { return WeightedSum(ffn.Forward(x), w); };
  EXPECT_LT(MaxInputGradError(&x, dx, loss), kGradTol);
  for (Parameter* p : params) {
    EXPECT_LT(MaxParamGradError(p, p->grad, loss), kGradTol) << p->name;
  }
}

TEST(TransformerBlockTest, GradCheckInput) {
  Rng rng(15);
  TransformerBlock block(4, 2, 8, /*dropout=*/0.0, &rng);
  Matrix x = rng.GaussianMatrix(6, 4, 0.7);  // batch=2, L=3
  const Matrix w = rng.GaussianMatrix(6, 4, 1.0);
  block.Forward(x, 2, 3, /*train=*/false);
  std::vector<Parameter*> params;
  block.CollectParameters(&params);
  for (Parameter* p : params) p->ZeroGrad();
  const Matrix dx = block.Backward(w);
  auto loss = [&]() {
    return WeightedSum(block.Forward(x, 2, 3, false), w);
  };
  EXPECT_LT(MaxInputGradError(&x, dx, loss), kGradTol);
}

TEST(TransformerEncoderTest, GradCheckInputAndSomeParams) {
  Rng rng(16);
  TransformerEncoder enc(4, 2, 2, 8, /*dropout=*/0.0, &rng);
  Matrix x = rng.GaussianMatrix(4, 4, 0.7);  // batch=1, L=4
  const Matrix w = rng.GaussianMatrix(4, 4, 1.0);
  enc.Forward(x, 1, 4, false);
  std::vector<Parameter*> params;
  enc.CollectParameters(&params);
  for (Parameter* p : params) p->ZeroGrad();
  const Matrix dx = enc.Backward(w);
  auto loss = [&]() { return WeightedSum(enc.Forward(x, 1, 4, false), w); };
  EXPECT_LT(MaxInputGradError(&x, dx, loss), kGradTol);
  // Check a subset of parameters (full sweep is slow on one core).
  for (std::size_t i = 0; i < params.size(); i += 5) {
    EXPECT_LT(MaxParamGradError(params[i], params[i]->grad, loss), kGradTol)
        << params[i]->name;
  }
}

TEST(TransformerEncoderTest, CausalityAcrossBlocks) {
  Rng rng(17);
  TransformerEncoder enc(8, 2, 2, 16, 0.0, &rng);
  Matrix x = rng.GaussianMatrix(5, 8, 1.0);
  const Matrix y1 = enc.Forward(x, 1, 5, false);
  x(4, 0) += 3.0;
  const Matrix y2 = enc.Forward(x, 1, 5, false);
  for (std::size_t t = 0; t < 4; ++t)
    for (std::size_t c = 0; c < 8; ++c) EXPECT_NEAR(y1(t, c), y2(t, c), 1e-10);
}

// ---------------------------------------------------------------------------
// Losses
// ---------------------------------------------------------------------------

TEST(LossTest, CrossEntropyUniformLogits) {
  const Matrix logits(2, 4);  // all-zero logits: p = 1/4 each
  const std::vector<std::size_t> targets = {0, 3};
  Matrix dlogits;
  const double loss = SoftmaxCrossEntropy(logits, targets, &dlogits);
  EXPECT_NEAR(loss, std::log(4.0), 1e-12);
}

TEST(LossTest, CrossEntropyPerfectPrediction) {
  Matrix logits(1, 3);
  logits(0, 1) = 100.0;
  Matrix dlogits;
  const double loss = SoftmaxCrossEntropy(logits, {1}, &dlogits);
  EXPECT_NEAR(loss, 0.0, 1e-9);
}

TEST(LossTest, CrossEntropyMaskedRowsIgnored) {
  Rng rng(18);
  Matrix logits = rng.GaussianMatrix(3, 4, 2.0);
  Matrix dlogits;
  // Row 1 masked out: loss equals the 2-row computation.
  const double masked = SoftmaxCrossEntropy(logits, {0, 1, 2}, {1, 0, 1},
                                            &dlogits);
  for (std::size_t c = 0; c < 4; ++c) EXPECT_DOUBLE_EQ(dlogits(1, c), 0.0);

  Matrix two_rows(2, 4);
  two_rows.SetRow(0, logits.Row(0));
  two_rows.SetRow(1, logits.Row(2));
  Matrix d2;
  const double expected = SoftmaxCrossEntropy(two_rows, {0, 2}, &d2);
  EXPECT_NEAR(masked, expected, 1e-12);
}

TEST(LossTest, CrossEntropyGradCheck) {
  Rng rng(19);
  Matrix logits = rng.GaussianMatrix(3, 5, 1.0);
  const std::vector<std::size_t> targets = {2, 0, 4};
  const std::vector<double> weights = {1.0, 0.5, 1.0};
  Matrix dlogits;
  SoftmaxCrossEntropy(logits, targets, weights, &dlogits);
  for (std::size_t i = 0; i < logits.size(); ++i) {
    auto loss = [&]() {
      Matrix d;
      return SoftmaxCrossEntropy(logits, targets, weights, &d);
    };
    const double numeric =
        whitenrec::testing::NumericalDerivative(loss, logits.data() + i);
    EXPECT_NEAR(numeric, dlogits.data()[i], 1e-6);
  }
}

TEST(LossTest, CrossEntropyGradientRowsSumToZero) {
  Rng rng(20);
  const Matrix logits = rng.GaussianMatrix(4, 6, 1.0);
  Matrix dlogits;
  SoftmaxCrossEntropy(logits, {0, 1, 2, 3}, &dlogits);
  for (std::size_t r = 0; r < 4; ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < 6; ++c) sum += dlogits(r, c);
    EXPECT_NEAR(sum, 0.0, 1e-12);
  }
}

TEST(LossTest, InfoNceIdenticalViewsLowLoss) {
  Rng rng(21);
  const Matrix a = rng.GaussianMatrix(8, 4, 1.0);
  Matrix da, db;
  const double loss_same = InfoNce(a, a, 0.1, &da, &db);
  const Matrix b = rng.GaussianMatrix(8, 4, 1.0);
  const double loss_diff = InfoNce(a, b, 0.1, &da, &db);
  EXPECT_LT(loss_same, loss_diff);
}

TEST(LossTest, InfoNceGradCheck) {
  Rng rng(22);
  Matrix a = rng.GaussianMatrix(4, 3, 1.0);
  Matrix b = rng.GaussianMatrix(4, 3, 1.0);
  Matrix da, db;
  InfoNce(a, b, 0.5, &da, &db);
  auto loss = [&]() {
    Matrix x, y;
    return InfoNce(a, b, 0.5, &x, &y);
  };
  EXPECT_LT(MaxInputGradError(&a, da, loss), kGradTol);
  EXPECT_LT(MaxInputGradError(&b, db, loss), kGradTol);
}

TEST(LossTest, BprLossDecreasesWithMargin) {
  std::vector<double> dpos, dneg;
  const double high = BprLoss({0.0}, {0.0}, &dpos, &dneg);
  const double low = BprLoss({5.0}, {0.0}, &dpos, &dneg);
  EXPECT_GT(high, low);
  EXPECT_NEAR(high, std::log(2.0), 1e-12);
}

TEST(LossTest, BprGradientSigns) {
  std::vector<double> dpos, dneg;
  BprLoss({1.0}, {0.5}, &dpos, &dneg);
  EXPECT_LT(dpos[0], 0.0);  // increasing pos score reduces loss
  EXPECT_GT(dneg[0], 0.0);
}

// ---------------------------------------------------------------------------
// Optimizer
// ---------------------------------------------------------------------------

TEST(AdamTest, MinimizesQuadratic) {
  // Minimize f(w) = sum (w - 3)^2.
  Parameter w("w", Matrix(1, 4));
  Adam::Options opts;
  opts.learning_rate = 0.1;
  opts.clip_norm = 0.0;
  Adam adam({&w}, opts);
  for (int step = 0; step < 500; ++step) {
    for (std::size_t i = 0; i < 4; ++i)
      w.grad(0, i) = 2.0 * (w.value(0, i) - 3.0);
    adam.Step();
  }
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(w.value(0, i), 3.0, 1e-3);
}

TEST(AdamTest, StepZeroesGradients) {
  Parameter w("w", Matrix(1, 2));
  Adam adam({&w}, Adam::Options{});
  w.grad(0, 0) = 1.0;
  adam.Step();
  EXPECT_DOUBLE_EQ(w.grad(0, 0), 0.0);
}

TEST(AdamTest, WeightDecayShrinksWeights) {
  Parameter w("w", Matrix(1, 1, 10.0));
  Adam::Options opts;
  opts.learning_rate = 0.01;
  opts.weight_decay = 0.1;
  Adam adam({&w}, opts);
  // Zero task gradient: only decay acts.
  for (int i = 0; i < 100; ++i) adam.Step();
  EXPECT_LT(w.value(0, 0), 10.0);
}

TEST(AdamTest, ClippingBoundsUpdate) {
  Parameter w("w", Matrix(1, 1));
  Adam::Options opts;
  opts.learning_rate = 1.0;
  opts.clip_norm = 1.0;
  Adam adam({&w}, opts);
  w.grad(0, 0) = 1e6;  // huge gradient gets clipped to norm 1
  adam.Step();
  EXPECT_LT(std::fabs(w.value(0, 0)), 2.0);
}

TEST(AdamTest, NumParameters) {
  Parameter a("a", Matrix(2, 3));
  Parameter b("b", Matrix(1, 4));
  Adam adam({&a, &b}, Adam::Options{});
  EXPECT_EQ(adam.NumParameters(), 10u);
}

// ---------------------------------------------------------------------------
// Multi-threaded gradient checks
// ---------------------------------------------------------------------------
// The grad checks above run at whatever WHITENREC_THREADS selects (usually
// serial). These repeat the attention-backward and full-softmax checks with
// the pool forced wide enough that the (batch x head) and batch-row chunking
// actually splits, verifying the parallel backward paths analytically.

TEST(AttentionTest, GradCheckInputMultiThreaded) {
  ScopedThreads guard(4);
  Rng rng(31);
  MultiHeadSelfAttention attn(4, 2, &rng);
  Matrix x = rng.GaussianMatrix(9, 4, 0.7);  // batch=3, L=3 -> 6 (b,h) pairs
  const Matrix w = rng.GaussianMatrix(9, 4, 1.0);
  attn.Forward(x, 3, 3);
  std::vector<Parameter*> params;
  attn.CollectParameters(&params);
  for (Parameter* p : params) p->ZeroGrad();
  const Matrix dx = attn.Backward(w);
  auto loss = [&]() { return WeightedSum(attn.Forward(x, 3, 3), w); };
  EXPECT_LT(MaxInputGradError(&x, dx, loss), kGradTol);
}

TEST(AttentionTest, GradCheckParametersMultiThreaded) {
  ScopedThreads guard(4);
  Rng rng(32);
  MultiHeadSelfAttention attn(4, 2, &rng);
  Matrix x = rng.GaussianMatrix(6, 4, 0.7);  // batch=2, L=3 -> 4 (b,h) pairs
  const Matrix w = rng.GaussianMatrix(6, 4, 1.0);
  attn.Forward(x, 2, 3);
  std::vector<Parameter*> params;
  attn.CollectParameters(&params);
  for (Parameter* p : params) p->ZeroGrad();
  attn.Backward(w);
  auto loss = [&]() { return WeightedSum(attn.Forward(x, 2, 3), w); };
  for (Parameter* p : params) {
    EXPECT_LT(MaxParamGradError(p, p->grad, loss), kGradTol) << p->name;
  }
}

TEST(LossTest, CrossEntropyGradCheckMultiThreaded) {
  ScopedThreads guard(4);
  Rng rng(33);
  // Wide enough that GrainForWork splits the 48 rows into several chunks, so
  // the parallel softmax + gradient fill is genuinely exercised.
  Matrix logits = rng.GaussianMatrix(48, 400, 1.0);
  std::vector<std::size_t> targets(48);
  std::vector<double> weights(48, 1.0);
  for (std::size_t r = 0; r < 48; ++r) targets[r] = (r * 53) % 400;
  weights[5] = 0.0;  // keep a masked row in the mix
  weights[17] = 0.5;
  Matrix dlogits;
  SoftmaxCrossEntropy(logits, targets, weights, &dlogits);
  auto loss = [&]() {
    Matrix d;
    return SoftmaxCrossEntropy(logits, targets, weights, &d);
  };
  // Finite differences over a strided sample of locations (a full sweep of
  // 48 x 400 is too slow for tier-1).
  for (std::size_t i = 0; i < logits.size(); i += 97) {
    const double numeric =
        whitenrec::testing::NumericalDerivative(loss, logits.data() + i);
    EXPECT_NEAR(numeric, dlogits.data()[i], 1e-6) << "flat index " << i;
  }
}

TEST(LossTest, CrossEntropyBitwiseStableAcrossThreadCounts) {
  Rng rng(34);
  Matrix logits = rng.GaussianMatrix(64, 300, 2.0);
  std::vector<std::size_t> targets(64);
  for (std::size_t r = 0; r < 64; ++r) targets[r] = (r * 7) % 300;
  std::vector<double> losses;
  std::vector<Matrix> grads;
  for (std::size_t t : {1u, 2u, 8u}) {
    ScopedThreads guard(t);
    Matrix d;
    losses.push_back(SoftmaxCrossEntropy(logits, targets, &d));
    grads.push_back(std::move(d));
  }
  for (std::size_t v = 1; v < losses.size(); ++v) {
    EXPECT_EQ(losses[0], losses[v]);
    for (std::size_t i = 0; i < grads[0].size(); ++i) {
      ASSERT_EQ(grads[0].data()[i], grads[v].data()[i]) << "flat " << i;
    }
  }
}

}  // namespace
}  // namespace nn
}  // namespace whitenrec
