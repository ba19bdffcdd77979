#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "data/split.h"
#include "eval/alignment_uniformity.h"
#include "eval/conditioning.h"
#include "eval/metrics.h"
#include "grad_check.h"
#include "linalg/gemm.h"
#include "nn/loss.h"
#include "scoped_knobs.h"
#include "seqrec/baselines.h"
#include "seqrec/general_rec.h"
#include "seqrec/item_encoder.h"
#include "seqrec/model.h"
#include "seqrec/sequence_input.h"
#include "seqrec/trainer.h"

namespace whitenrec {
namespace seqrec {
namespace {

using linalg::Matrix;
using linalg::Rng;
using ::whitenrec::testing::MaxParamGradError;
using ::whitenrec::testing::WeightedSum;

// Shared tiny dataset for model tests (expensive to regenerate per test).
const data::GeneratedData& TinyData() {
  static const data::GeneratedData* data = [] {
    data::DatasetProfile p = data::ArtsProfile(0.3);
    p.plm.embed_dim = 16;
    p.plm.calibration_iters = 15;
    return new data::GeneratedData(data::GenerateDataset(p));
  }();
  return *data;
}

SasRecConfig TinyModelConfig() {
  SasRecConfig config;
  config.hidden_dim = 16;
  config.num_blocks = 1;
  config.num_heads = 2;
  config.ffn_hidden = 32;
  config.dropout = 0.1;
  config.max_len = 8;
  config.seed = 21;
  return config;
}

TrainConfig TinyTrainConfig() {
  TrainConfig config;
  config.epochs = 3;
  config.batch_size = 64;
  config.learning_rate = 2e-3;
  config.patience = 3;
  return config;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(MetricsTest, RankOfTargetCountsHigherScores) {
  const std::vector<double> scores = {0.1, 0.9, 0.5, 0.7};
  const std::vector<char> none(4, 0);
  EXPECT_EQ(eval::RankOfTarget(scores, 1, none), 0u);
  EXPECT_EQ(eval::RankOfTarget(scores, 3, none), 1u);
  EXPECT_EQ(eval::RankOfTarget(scores, 0, none), 3u);
}

TEST(MetricsTest, ExclusionRemovesCompetitors) {
  const std::vector<double> scores = {0.1, 0.9, 0.5, 0.7};
  std::vector<char> excluded(4, 0);
  excluded[1] = 1;
  EXPECT_EQ(eval::RankOfTarget(scores, 3, excluded), 0u);
}

TEST(MetricsTest, AccumulatorRecallNdcg) {
  eval::MetricAccumulator acc({2, 5});
  acc.AddRank(0);  // hit at both Ks, NDCG 1.0
  acc.AddRank(3);  // hit only at K=5
  acc.AddRank(10); // miss
  EXPECT_NEAR(acc.RecallAt(2), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(acc.RecallAt(5), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(acc.NdcgAt(2), 1.0 / 3.0, 1e-12);
  const double ndcg5 = (1.0 + 1.0 / std::log2(5.0)) / 3.0;
  EXPECT_NEAR(acc.NdcgAt(5), ndcg5, 1e-12);
  EXPECT_EQ(acc.count(), 3u);
}

TEST(MetricsTest, NdcgDecaysWithRank) {
  eval::MetricAccumulator top({20});
  top.AddRank(0);
  eval::MetricAccumulator low({20});
  low.AddRank(15);
  EXPECT_GT(top.NdcgAt(20), low.NdcgAt(20));
}

// ---------------------------------------------------------------------------
// Alignment / uniformity & conditioning
// ---------------------------------------------------------------------------

TEST(AlignUniformTest, PerfectAlignmentIsZero) {
  Rng rng(1);
  const Matrix items = rng.GaussianMatrix(10, 4, 1.0);
  Matrix users(3, 4);
  std::vector<std::size_t> positives = {0, 5, 9};
  for (std::size_t u = 0; u < 3; ++u) users.SetRow(u, items.Row(positives[u]));
  Rng rng2(2);
  const auto au = eval::MeasureAlignmentUniformity(users, items, positives, &rng2);
  EXPECT_NEAR(au.l_align, 0.0, 1e-12);
}

TEST(AlignUniformTest, CollapsedRepsHaveHighUniformityLoss) {
  // All representations identical -> e^0 everywhere -> l_uniform = 0 (max).
  Matrix same(8, 4, 1.0);
  Rng rng(3);
  const Matrix items = rng.GaussianMatrix(8, 4, 1.0);
  Rng rng2(4);
  const auto collapsed = eval::MeasureAlignmentUniformity(
      same, items, std::vector<std::size_t>(8, 0), &rng2);
  Rng rng3(5);
  const Matrix spread = rng.GaussianMatrix(8, 4, 1.0);
  const auto dispersed = eval::MeasureAlignmentUniformity(
      spread, items, std::vector<std::size_t>(8, 0), &rng3);
  EXPECT_GT(collapsed.l_uniform_user, dispersed.l_uniform_user);
  EXPECT_NEAR(collapsed.l_uniform_user, 0.0, 1e-9);
}

TEST(ConditioningTest, IsotropicNearOne) {
  Rng rng(6);
  const Matrix v = rng.GaussianMatrix(2000, 4, 1.0);
  EXPECT_LT(eval::ItemEmbeddingConditionNumber(v), 1.5);
}

TEST(ConditioningTest, AnisotropicLarge) {
  Rng rng(7);
  Matrix v = rng.GaussianMatrix(500, 4, 1.0);
  for (std::size_t r = 0; r < v.rows(); ++r) v(r, 0) *= 100.0;
  EXPECT_GT(eval::ItemEmbeddingConditionNumber(v), 100.0);
}

// ---------------------------------------------------------------------------
// Item encoders
// ---------------------------------------------------------------------------

TEST(IdEncoderTest, ForwardReturnsTable) {
  Rng rng(8);
  IdEncoder enc(5, 3, &rng);
  const Matrix v = enc.Forward(false);
  EXPECT_EQ(v.rows(), 5u);
  EXPECT_EQ(v.cols(), 3u);
}

TEST(IdEncoderTest, BackwardAccumulates) {
  Rng rng(9);
  IdEncoder enc(4, 2, &rng);
  enc.Backward(Matrix(4, 2, 1.0));
  enc.Backward(Matrix(4, 2, 1.0));
  EXPECT_DOUBLE_EQ(enc.table().grad(0, 0), 2.0);
}

TEST(SumEncoderTest, AddsOutputs) {
  Rng rng(10);
  auto a = std::make_unique<IdEncoder>(4, 3, &rng);
  auto b = std::make_unique<IdEncoder>(4, 3, &rng);
  const Matrix va = a->Forward(false);
  const Matrix vb = b->Forward(false);
  IdEncoder* araw = a.get();
  IdEncoder* braw = b.get();
  SumEncoder sum(std::move(a), std::move(b));
  const Matrix v = sum.Forward(false);
  for (std::size_t i = 0; i < v.size(); ++i)
    EXPECT_NEAR(v.data()[i], va.data()[i] + vb.data()[i], 1e-12);
  sum.Backward(Matrix(4, 3, 2.0));
  EXPECT_DOUBLE_EQ(araw->table().grad(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(braw->table().grad(1, 1), 2.0);
}

// ---------------------------------------------------------------------------
// SasRecModel
// ---------------------------------------------------------------------------

TEST(SasRecModelTest, ScoreShape) {
  const data::Dataset& ds = TinyData().dataset;
  auto rec = MakeSasRecId(ds, TinyModelConfig());
  const data::Split split = data::LeaveOneOutSplit(ds);
  const auto batches = data::MakeEvalBatches(split.valid, 8, 16);
  const Matrix scores = rec->model()->ScoreLastPositions(batches[0]);
  EXPECT_EQ(scores.rows(), batches[0].batch_size);
  EXPECT_EQ(scores.cols(), ds.num_items);
}

TEST(SasRecModelTest, TrainStepReturnsFiniteLoss) {
  const data::Dataset& ds = TinyData().dataset;
  auto rec = MakeSasRecId(ds, TinyModelConfig());
  const data::Split split = data::LeaveOneOutSplit(ds);
  Rng rng(11);
  const auto batches = data::MakeTrainBatches(split.train, 8, 32, &rng);
  const double loss = rec->model()->TrainStep(batches[0]);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_GT(loss, 0.0);
  // Initial loss should be near log(num_items) for random init.
  EXPECT_NEAR(loss, std::log(static_cast<double>(ds.num_items)), 1.5);
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Largest |got - want| / max(1, |want|) over all elements.
double MaxRelDiff(const Matrix& got, const Matrix& want) {
  EXPECT_EQ(got.rows(), want.rows());
  EXPECT_EQ(got.cols(), want.cols());
  double worst = 0.0;
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    const double denom = std::max(1.0, std::abs(want.data()[i]));
    worst = std::max(worst, std::abs(got.data()[i] - want.data()[i]) / denom);
  }
  return worst;
}

// SequenceLossAndGrad streams the logits tile by tile. Its oracle is the
// materialized pipeline: full (batch*L, num_items) logits, dense softmax CE,
// then the two backward GEMMs. The online log-sum-exp rounds differently in
// the last ulps, so agreement is <= 1e-10 relative, at any tile width.
TEST(SasRecModelTest, SequenceLossMatchesMaterializedOracle) {
  const data::Dataset& ds = TinyData().dataset;
  auto rec = MakeSasRecId(ds, TinyModelConfig());
  const data::Split split = data::LeaveOneOutSplit(ds);
  Rng rng(13);
  const auto batches = data::MakeTrainBatches(split.train, 8, 32, &rng);
  const data::Batch& batch = batches[0];
  SasRecModel* model = rec->model();
  const Matrix v = model->EncodeItems(/*train=*/false);
  const Matrix h = model->EncodeSequences(batch, v, /*train=*/false);

  Matrix logits;
  linalg::MatMulTransBInto(h, v, &logits);
  Matrix dlogits;
  const double want_loss = nn::SoftmaxCrossEntropy(
      logits, batch.targets, batch.target_weights, &dlogits);
  Matrix want_dh;
  linalg::MatMulInto(dlogits, v, &want_dh);
  Matrix want_dv;
  linalg::MatMulTransAInto(dlogits, h, &want_dv);

  for (const std::size_t tile : {7u, 256u, 100000u}) {
    linalg::SetScoreTileCols(tile);
    Matrix dh;
    Matrix dv;
    const double loss = model->SequenceLossAndGrad(batch, h, v, &dh, &dv);
    EXPECT_LE(std::abs(loss - want_loss) / std::max(1.0, std::abs(want_loss)),
              1e-10)
        << "tile=" << tile;
    EXPECT_LE(MaxRelDiff(dh, want_dh), 1e-10) << "dH tile=" << tile;
    EXPECT_LE(MaxRelDiff(dv, want_dv), 1e-10) << "dV tile=" << tile;
  }
  linalg::SetScoreTileCols(256);
}

TEST(SasRecModelTest, TrainingReducesLoss) {
  const data::Dataset& ds = TinyData().dataset;
  auto rec = MakeSasRecId(ds, TinyModelConfig());
  const data::Split split = data::LeaveOneOutSplit(ds);
  std::vector<nn::Parameter*> params = rec->model()->Parameters();
  nn::Adam::Options opts;
  opts.learning_rate = 3e-3;
  nn::Adam adam(params, opts);
  Rng rng(12);
  double first = 0.0, last = 0.0;
  for (int epoch = 0; epoch < 6; ++epoch) {
    const auto batches = data::MakeTrainBatches(split.train, 8, 64, &rng);
    double sum = 0.0;
    for (const auto& batch : batches) {
      sum += rec->model()->TrainStep(batch);
      adam.Step();
    }
    if (epoch == 0) first = sum / static_cast<double>(batches.size());
    last = sum / static_cast<double>(batches.size());
  }
  EXPECT_LT(last, first);
}

TEST(SasRecModelTest, UserRepresentationShape) {
  const data::Dataset& ds = TinyData().dataset;
  auto rec = MakeSasRecId(ds, TinyModelConfig());
  const data::Split split = data::LeaveOneOutSplit(ds);
  const auto batches = data::MakeEvalBatches(split.valid, 8, 16);
  const Matrix reps = rec->model()->UserRepresentations(batches[0]);
  EXPECT_EQ(reps.rows(), batches[0].batch_size);
  EXPECT_EQ(reps.cols(), TinyModelConfig().hidden_dim);
}

TEST(SasRecModelTest, PaddingDoesNotAffectScores) {
  // The same context padded to different lengths must score identically.
  const data::Dataset& ds = TinyData().dataset;
  SasRecConfig config = TinyModelConfig();
  config.dropout = 0.0;
  auto rec = MakeSasRecId(ds, config);
  data::EvalInstance inst{0, {1, 2, 3}, 0};
  const auto short_batches = data::MakeEvalBatches({inst}, 4, 4);
  const auto long_batches = data::MakeEvalBatches({inst}, 8, 4);
  const Matrix s1 = rec->model()->ScoreLastPositions(short_batches[0]);
  const Matrix s2 = rec->model()->ScoreLastPositions(long_batches[0]);
  EXPECT_TRUE(SameBits(s1, s2));
}

// ---------------------------------------------------------------------------
// Eval forward: EncodeLastPositions against the training-forward oracle
// ---------------------------------------------------------------------------

// One context of every length 1..max_len + 2; the last two are longer than
// the window and keep only their most recent max_len items.
std::vector<data::EvalInstance> MixedLengthInstances(std::size_t max_len,
                                                     std::size_t num_items) {
  std::vector<data::EvalInstance> out;
  for (std::size_t len = 1; len <= max_len + 2; ++len) {
    data::EvalInstance inst{len, {}, 0};
    for (std::size_t t = 0; t < len; ++t) {
      inst.input.push_back(1 + (len * 7 + t * 13) % (num_items - 1));
    }
    out.push_back(inst);
  }
  return out;
}

// The oracle: the training forward in eval mode over the whole padded batch,
// then the last valid row of each sequence.
Matrix OracleLastPositions(SasRecModel* model, const data::Batch& batch,
                           const Matrix& v) {
  return GatherLastPositions(model->EncodeSequences(batch, v, false), batch);
}

struct EvalForwardShape {
  std::size_t num_blocks;
  std::size_t num_heads;
};

class EvalForwardTest : public ::testing::TestWithParam<EvalForwardShape> {};

TEST_P(EvalForwardTest, LastPositionsMatchTrainingForwardBitwise) {
  const data::Dataset& ds = TinyData().dataset;
  SasRecConfig config = TinyModelConfig();
  config.num_blocks = GetParam().num_blocks;
  config.num_heads = GetParam().num_heads;
  config.dropout = 0.3;  // eval must ignore it
  auto rec = MakeSasRecText(ds, config);
  SasRecModel* model = rec->model();
  // One training step moves the weights off their initialization.
  const data::Split split = data::LeaveOneOutSplit(ds);
  Rng rng(17);
  const std::vector<data::Batch> train =
      data::MakeTrainBatches(split.train, config.max_len, 32, &rng);
  nn::Adam::Options opts;
  opts.learning_rate = 1e-2;
  nn::Adam adam(model->Parameters(), opts);
  model->TrainStep(train[0]);
  adam.Step();

  std::vector<data::Batch> batches;
  batches.push_back(data::MakeEvalBatches(
      MixedLengthInstances(config.max_len, ds.num_items), config.max_len,
      64)[0]);
  batches.push_back(data::MakeEvalBatches(
      {data::EvalInstance{0, {3, 5, 7}, 0}}, config.max_len, 1)[0]);
  batches.push_back(data::MakeEvalBatches(
      {data::EvalInstance{0, {9}, 0}}, config.max_len, 1)[0]);
  // A padded row inside a prefix is zeroed, as the training forward zeroes
  // it.
  data::Batch holed = batches[0];
  for (std::size_t b = 0; b < holed.batch_size; ++b) {
    if (holed.last_position[b] >= 2) holed.input_mask[holed.Flat(b, 1)] = 0.0;
  }
  batches.push_back(holed);
  batches.push_back(train[1]);  // every position carries a target

  const Matrix v = model->EncodeItems(/*train=*/false);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ScopedThreads scoped(threads);
    for (std::size_t i = 0; i < batches.size(); ++i) {
      const data::Batch& batch = batches[i];
      const Matrix want = OracleLastPositions(model, batch, v);
      Matrix got;
      model->EncodeLastPositions(batch, v, &got);
      EXPECT_TRUE(SameBits(got, want))
          << "batch " << i << " threads " << threads;
      EXPECT_TRUE(SameBits(model->UserRepresentations(batch), want))
          << "batch " << i << " threads " << threads;
      Matrix users;
      Matrix items;
      model->ScoreFactors(batch, &users, &items);
      EXPECT_TRUE(SameBits(users, want));
      EXPECT_TRUE(SameBits(items, v));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BlocksAndHeads, EvalForwardTest,
    ::testing::Values(EvalForwardShape{1, 1}, EvalForwardShape{1, 2},
                      EvalForwardShape{1, 4}, EvalForwardShape{3, 1},
                      EvalForwardShape{3, 2}, EvalForwardShape{3, 4}),
    [](const ::testing::TestParamInfo<EvalForwardShape>& shape) {
      return "blocks" + std::to_string(shape.param.num_blocks) + "_heads" +
             std::to_string(shape.param.num_heads);
    });

// Evaluation writes no training state: ScoreFactors and UserRepresentations
// on another batch between a step's forward and its backward leave the
// loss and every gradient bitwise where an uninterrupted step puts them, and
// draw no dropout randomness (the second step would diverge otherwise).
TEST(EvalStateTest, EvalBetweenForwardAndBackwardLeavesGradientsBitwise) {
  const data::Dataset& ds = TinyData().dataset;
  SasRecConfig config = TinyModelConfig();
  config.num_blocks = 2;
  config.dropout = 0.2;
  auto plain = MakeSasRecText(ds, config);
  auto interrupted = MakeSasRecText(ds, config);
  const data::Split split = data::LeaveOneOutSplit(ds);
  Rng rng(19);
  const std::vector<data::Batch> train =
      data::MakeTrainBatches(split.train, config.max_len, 32, &rng);
  const data::Batch eval_batch =
      data::MakeEvalBatches(split.valid, config.max_len, 16)[0];

  auto step = [&](SasRecModel* model, const data::Batch& batch,
                  bool evaluate) {
    for (nn::Parameter* p : model->Parameters()) p->ZeroGrad();
    const Matrix v = model->EncodeItems(/*train=*/true);
    const Matrix h = model->EncodeSequences(batch, v, /*train=*/true);
    if (evaluate) {
      Matrix users;
      Matrix items;
      model->ScoreFactors(eval_batch, &users, &items);
      EXPECT_EQ(model->UserRepresentations(eval_batch).rows(),
                eval_batch.batch_size);
    }
    Matrix dh;
    Matrix dv;
    const double loss = model->SequenceLossAndGrad(batch, h, v, &dh, &dv);
    model->BackwardSequences(batch, dh, &dv);
    model->BackwardItems(dv);
    return loss;
  };
  for (std::size_t i = 0; i < 2; ++i) {
    const double want = step(plain->model(), train[i], false);
    const double got = step(interrupted->model(), train[i], true);
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0) << "step " << i;
    const std::vector<nn::Parameter*> a = plain->model()->Parameters();
    const std::vector<nn::Parameter*> b = interrupted->model()->Parameters();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t p = 0; p < a.size(); ++p) {
      EXPECT_TRUE(SameBits(b[p]->grad, a[p]->grad))
          << a[p]->name << " step " << i;
    }
  }
}

// CL4SRec's stop-gradient view runs an eval pass inside every training
// step. With the eval forward in that place, training reproduces the run
// that uses the training forward's eval mode there, bitwise.
TEST(EvalStateTest, EvalInsideTrainingStepsTrainsAsTheOracle) {
  const data::Dataset& ds = TinyData().dataset;
  const data::Split split = data::LeaveOneOutSplit(ds);
  auto fit = [&](bool oracle) {
    auto rec = MakeSasRecId(ds, TinyModelConfig());
    rec->SetStep([oracle](SasRecModel* model, const data::Batch& batch) {
      Matrix z;
      if (oracle) {
        const Matrix v = model->EncodeItems(/*train=*/false);
        z = OracleLastPositions(model, batch, v);
      } else {
        z = model->UserRepresentations(batch);
      }
      return model->TrainStep(batch) + 1e-3 * z.FrobeniusNorm();
    });
    return rec->Fit(split, TinyTrainConfig());
  };
  const TrainResult want = fit(true);
  const TrainResult got = fit(false);
  EXPECT_EQ(got.best_epoch, want.best_epoch);
  EXPECT_EQ(std::memcmp(&got.best_valid_ndcg20, &want.best_valid_ndcg20,
                        sizeof(double)),
            0);
  ASSERT_EQ(got.epochs.size(), want.epochs.size());
  for (std::size_t e = 0; e < got.epochs.size(); ++e) {
    EXPECT_EQ(std::memcmp(&got.epochs[e].train_loss,
                          &want.epochs[e].train_loss, sizeof(double)),
              0)
        << "epoch " << e;
    EXPECT_EQ(std::memcmp(&got.epochs[e].valid_ndcg20,
                          &want.epochs[e].valid_ndcg20, sizeof(double)),
              0)
        << "epoch " << e;
  }
}

// ---------------------------------------------------------------------------
// SequenceInput: the eval builders against the training forward
// ---------------------------------------------------------------------------

// The packed prefixes and the one-row step read the same rule as the
// training forward: every row they build is bitwise the matching row of
// Forward(batch, v, false). Covers contexts of every length (1 and past the
// window included), a batch of one, holes inside prefixes and a training
// batch, at 1, 2 and 4 threads.
TEST(SequenceInputTest, EvalRowsMatchTrainingForwardBitwise) {
  const data::Dataset& ds = TinyData().dataset;
  const SasRecConfig config = TinyModelConfig();
  Rng rng(23);
  SequenceInput input(config.max_len, config.hidden_dim, /*dropout=*/0.3,
                      &rng, "pos");
  const Matrix v = rng.GaussianMatrix(ds.num_items, config.hidden_dim, 1.0);

  std::vector<data::Batch> batches;
  batches.push_back(data::MakeEvalBatches(
      MixedLengthInstances(config.max_len, ds.num_items), config.max_len,
      64)[0]);
  batches.push_back(data::MakeEvalBatches(
      {data::EvalInstance{0, {3, 5, 7}, 0}}, config.max_len, 1)[0]);
  batches.push_back(data::MakeEvalBatches(
      {data::EvalInstance{0, {9}, 0}}, config.max_len, 1)[0]);
  data::Batch holed = batches[0];
  for (std::size_t b = 0; b < holed.batch_size; ++b) {
    if (holed.last_position[b] >= 2) holed.input_mask[holed.Flat(b, 1)] = 0.0;
  }
  batches.push_back(holed);
  const data::Split split = data::LeaveOneOutSplit(ds);
  batches.push_back(
      data::MakeTrainBatches(split.train, config.max_len, 32, &rng)[0]);

  for (const std::size_t threads : {1u, 2u, 4u}) {
    ScopedThreads scoped(threads);
    for (std::size_t i = 0; i < batches.size(); ++i) {
      const data::Batch& batch = batches[i];
      const Matrix full = input.Forward(batch, v, /*train=*/false);
      std::vector<std::size_t> starts;
      Matrix packed;
      input.PackPrefixesInto(batch, v, &starts, &packed);
      ASSERT_EQ(starts.size(), batch.batch_size + 1);
      ASSERT_EQ(packed.rows(), starts.back());
      Matrix step;
      for (std::size_t b = 0; b < batch.batch_size; ++b) {
        ASSERT_EQ(starts[b + 1] - starts[b], batch.last_position[b] + 1);
        for (std::size_t t = 0; t <= batch.last_position[b]; ++t) {
          const std::size_t flat = batch.Flat(b, t);
          EXPECT_EQ(std::memcmp(packed.RowPtr(starts[b] + t),
                                full.RowPtr(flat),
                                config.hidden_dim * sizeof(double)),
                    0)
              << "batch " << i << " row " << b << " position " << t;
          if (batch.input_mask[flat] == 0.0) continue;  // no step row
          input.StepRowInto(v, batch.items[flat], t, &step);
          EXPECT_EQ(std::memcmp(step.data(), full.RowPtr(flat),
                                config.hidden_dim * sizeof(double)),
                    0)
              << "batch " << i << " row " << b << " position " << t;
        }
      }
    }
  }
}

// BERT4Rec feeds its learned [mask] vector as one extra row of the input
// table. Through a bidirectional encoder, the gradient Backward leaves on
// that row (and on the item rows and the position table) matches central
// differences.
TEST(SequenceInputTest, MaskRowGradientPassesGradCheck) {
  constexpr std::size_t kItems = 6;
  constexpr std::size_t kMaskRow = kItems;  // the extra table row
  constexpr std::size_t kDim = 8;
  Rng rng(29);
  SequenceInput input(/*max_len=*/4, kDim, /*dropout=*/0.2, &rng, "pos");
  nn::TransformerEncoder encoder(kDim, /*num_blocks=*/1, /*num_heads=*/2,
                                 /*ffn_hidden=*/16, /*dropout_rate=*/0.2,
                                 &rng, "enc", /*causal=*/false);
  nn::Parameter table("table", rng.GaussianMatrix(kItems + 1, kDim, 0.5));
  data::Batch batch;
  batch.batch_size = 2;
  batch.seq_len = 4;
  batch.items = {1, 3, kMaskRow, 0, kMaskRow, 2, 5, kMaskRow};
  batch.input_mask = {1, 1, 1, 0, 1, 1, 1, 1};
  batch.last_position = {2, 3};
  const Matrix w = rng.GaussianMatrix(8, kDim, 1.0);
  auto loss = [&]() {
    const Matrix x = input.Forward(batch, table.value, /*train=*/false);
    return WeightedSum(encoder.Forward(x, 2, 4, /*train=*/false), w);
  };
  std::vector<nn::Parameter*> positions;
  input.CollectParameters(&positions);
  ASSERT_EQ(positions.size(), 1u);
  positions[0]->ZeroGrad();
  loss();
  Matrix dtable(kItems + 1, kDim);
  input.Backward(encoder.Backward(w), &dtable);
  double mask_norm = 0.0;
  for (std::size_t c = 0; c < kDim; ++c) {
    mask_norm += std::fabs(dtable(kMaskRow, c));
  }
  EXPECT_GT(mask_norm, 0.0);
  EXPECT_LT(MaxParamGradError(&table, dtable, loss), 1e-4);
  EXPECT_LT(MaxParamGradError(positions[0], positions[0]->grad, loss), 1e-4);
}

// ---------------------------------------------------------------------------
// FDSA ranks through the packed last-position forward of both streams: a
// sequence's user row depends on that sequence alone.
// ---------------------------------------------------------------------------

TEST(FdsaScoreFactorsTest, UsersInvariantToBatchOrderCompositionAndPadding) {
  const data::Dataset& ds = TinyData().dataset;
  const SasRecConfig config = TinyModelConfig();
  auto rec = MakeFdsa(ds, config);
  TrainConfig tc = TinyTrainConfig();
  tc.epochs = 1;
  rec->Fit(data::LeaveOneOutSplit(ds), tc);

  const std::vector<data::EvalInstance> instances =
      MixedLengthInstances(config.max_len, ds.num_items);
  const std::size_t n = instances.size();
  auto users_of = [&](const std::vector<data::EvalInstance>& insts,
                      std::size_t seq_len) {
    const data::Batch batch =
        data::MakeEvalBatches(insts, seq_len, insts.size())[0];
    Matrix users;
    Matrix items;
    EXPECT_TRUE(rec->ScoreFactors(batch, &users, &items));
    EXPECT_EQ(users.rows(), insts.size());
    EXPECT_EQ(items.rows(), ds.num_items);
    return users;
  };
  auto same_row = [](const Matrix& a, std::size_t ra, const Matrix& b,
                     std::size_t rb) {
    return std::memcmp(a.RowPtr(ra), b.RowPtr(rb),
                       a.cols() * sizeof(double)) == 0;
  };
  for (const std::size_t threads : {1u, 4u}) {
    ScopedThreads scoped(threads);
    const Matrix all = users_of(instances, config.max_len);
    // Order: the batch reversed.
    const std::vector<data::EvalInstance> reversed(instances.rbegin(),
                                                   instances.rend());
    const Matrix rev = users_of(reversed, config.max_len);
    // Composition: every sequence alone, and every other one together.
    std::vector<data::EvalInstance> odd;
    for (std::size_t i = 1; i < n; i += 2) odd.push_back(instances[i]);
    const Matrix odd_users = users_of(odd, config.max_len);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(same_row(rev, n - 1 - i, all, i)) << "reversed " << i;
      EXPECT_TRUE(same_row(users_of({instances[i]}, config.max_len), 0, all,
                           i))
          << "alone " << i;
      if (i % 2 == 1) {
        EXPECT_TRUE(same_row(odd_users, i / 2, all, i)) << "odd " << i;
      }
    }
    // Padding: contexts of at most 3 items in windows of 4 and of max_len.
    const std::vector<data::EvalInstance> short_ones(instances.begin(),
                                                     instances.begin() + 3);
    const Matrix tight = users_of(short_ones, 4);
    const Matrix padded = users_of(short_ones, config.max_len);
    for (std::size_t i = 0; i < short_ones.size(); ++i) {
      EXPECT_TRUE(same_row(tight, i, all, i)) << "window 4, " << i;
      EXPECT_TRUE(same_row(padded, i, all, i)) << "window max_len, " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Trainer
// ---------------------------------------------------------------------------

TEST(TrainerTest, FitProducesLogsAndParams) {
  const data::Dataset& ds = TinyData().dataset;
  auto rec = MakeSasRecId(ds, TinyModelConfig());
  const data::Split split = data::LeaveOneOutSplit(ds);
  const TrainResult& result = rec->Fit(split, TinyTrainConfig());
  EXPECT_FALSE(result.epochs.empty());
  EXPECT_GT(result.num_parameters, 0u);
  EXPECT_GE(result.best_valid_ndcg20, 0.0);
  for (const auto& log : result.epochs) EXPECT_TRUE(std::isfinite(log.train_loss));
}

TEST(TrainerTest, EarlyStoppingCanTriggersBeforeMaxEpochs) {
  const data::Dataset& ds = TinyData().dataset;
  auto rec = MakeSasRecId(ds, TinyModelConfig());
  const data::Split split = data::LeaveOneOutSplit(ds);
  TrainConfig config = TinyTrainConfig();
  config.epochs = 50;
  config.patience = 1;
  const TrainResult& result = rec->Fit(split, config);
  EXPECT_LT(result.epochs.size(), 50u);
}

TEST(TrainerTest, RecordAnalysisPopulatesFields) {
  const data::Dataset& ds = TinyData().dataset;
  auto rec = MakeSasRecId(ds, TinyModelConfig());
  const data::Split split = data::LeaveOneOutSplit(ds);
  TrainConfig config = TinyTrainConfig();
  config.epochs = 2;
  config.record_analysis = true;
  const TrainResult& result = rec->Fit(split, config);
  for (const auto& log : result.epochs) {
    EXPECT_GT(log.condition_number, 0.0);
    EXPECT_GT(log.l_align, 0.0);
    EXPECT_LE(log.l_uniform_user, 1e-9);  // log-mean-exp of negatives
  }
}

TEST(TrainerTest, EvaluateRankingBounds) {
  const data::Dataset& ds = TinyData().dataset;
  auto rec = MakeSasRecId(ds, TinyModelConfig());
  const data::Split split = data::LeaveOneOutSplit(ds);
  rec->Fit(split, TinyTrainConfig());
  const EvalResult result =
      EvaluateRanking(rec.get(), split.test, split.train, 8);
  EXPECT_GE(result.recall20, 0.0);
  EXPECT_LE(result.recall20, 1.0);
  EXPECT_LE(result.ndcg20, result.recall20 + 1e-12);
  EXPECT_GE(result.recall50, result.recall20);
  EXPECT_GE(result.ndcg50, result.ndcg20);
  EXPECT_EQ(result.count, split.test.size());
}

TEST(TrainerTest, TrainedModelBeatsRandomScores) {
  const data::Dataset& ds = TinyData().dataset;
  auto rec = MakeSasRecId(ds, TinyModelConfig());
  const data::Split split = data::LeaveOneOutSplit(ds);
  TrainConfig config = TinyTrainConfig();
  config.epochs = 8;
  rec->Fit(split, config);
  const EvalResult trained =
      EvaluateRanking(rec.get(), split.test, split.train, 8);
  // Random ranking recall@20 on ~70+ items would be < 0.35; a trained model
  // on this easy synthetic data should do clearly better.
  const double random_recall =
      20.0 / static_cast<double>(ds.num_items);
  EXPECT_GT(trained.recall20, random_recall);
}

// ---------------------------------------------------------------------------
// Baseline factories (construction + short smoke training)
// ---------------------------------------------------------------------------

TEST(BaselinesTest, AllSasRecVariantsConstruct) {
  const data::Dataset& ds = TinyData().dataset;
  const SasRecConfig config = TinyModelConfig();
  WhitenRecConfig wc;
  wc.relaxed_groups = 4;
  EXPECT_EQ(MakeSasRecId(ds, config)->name(), "SASRec(ID)");
  EXPECT_EQ(MakeSasRecText(ds, config)->name(), "SASRec(T)");
  EXPECT_EQ(MakeSasRecTextId(ds, config)->name(), "SASRec(T+ID)");
  EXPECT_EQ(MakeWhitenRec(ds, config, wc)->name(), "WhitenRec(T)");
  EXPECT_EQ(MakeWhitenRecPlus(ds, config, wc)->name(), "WhitenRec+(T)");
  EXPECT_EQ(MakeWhitenRec(ds, config, wc, true)->name(), "WhitenRec(T+ID)");
  EXPECT_EQ(MakeUniSRec(ds, config, false)->name(), "UniSRec(T)");
  EXPECT_EQ(MakeUniSRec(ds, config, true)->name(), "UniSRec(T+ID)");
  EXPECT_EQ(MakeCl4SRec(ds, config)->name(), "CL4SRec(ID)");
  EXPECT_EQ(MakeS3Rec(ds, config)->name(), "S3-Rec(T+ID)");
  EXPECT_EQ(MakeVqRec(ds, config)->name(), "VQRec(T)");
}

TEST(BaselinesTest, Cl4SRecTrainsWithAuxiliaryLoss) {
  const data::Dataset& ds = TinyData().dataset;
  auto rec = MakeCl4SRec(ds, TinyModelConfig());
  const data::Split split = data::LeaveOneOutSplit(ds);
  TrainConfig config = TinyTrainConfig();
  config.epochs = 2;
  const TrainResult& result = rec->Fit(split, config);
  EXPECT_EQ(result.epochs.size(), 2u);
  for (const auto& log : result.epochs)
    EXPECT_TRUE(std::isfinite(log.train_loss));
}

TEST(BaselinesTest, S3RecTrainsWithAttributeTask) {
  const data::Dataset& ds = TinyData().dataset;
  auto rec = MakeS3Rec(ds, TinyModelConfig());
  const data::Split split = data::LeaveOneOutSplit(ds);
  TrainConfig config = TinyTrainConfig();
  config.epochs = 2;
  const TrainResult& result = rec->Fit(split, config);
  EXPECT_EQ(result.epochs.size(), 2u);
  // Attribute matrix adds num_categories * hidden_dim params.
  EXPECT_GT(rec->NumParameters(),
            MakeSasRecTextId(ds, TinyModelConfig())->NumParameters());
}

TEST(BaselinesTest, VqRecQuantizesAndTrains) {
  const data::Dataset& ds = TinyData().dataset;
  auto rec = MakeVqRec(ds, TinyModelConfig(), 4, 8);
  const data::Split split = data::LeaveOneOutSplit(ds);
  TrainConfig config = TinyTrainConfig();
  config.epochs = 2;
  const TrainResult& result = rec->Fit(split, config);
  EXPECT_EQ(result.epochs.size(), 2u);
}

TEST(BaselinesTest, FdsaTrainsAndScores) {
  const data::Dataset& ds = TinyData().dataset;
  auto rec = MakeFdsa(ds, TinyModelConfig());
  const data::Split split = data::LeaveOneOutSplit(ds);
  TrainConfig config = TinyTrainConfig();
  config.epochs = 2;
  rec->Fit(split, config);
  const EvalResult result =
      EvaluateRanking(rec.get(), split.test, split.train, 8);
  EXPECT_GE(result.recall20, 0.0);
  EXPECT_GT(rec->NumParameters(), 0u);
}

TEST(BaselinesTest, TextOnlyModelsHaveFewerParamsThanTextId) {
  // Paper Table IX: removing ID embeddings shrinks the parameter count.
  const data::Dataset& ds = TinyData().dataset;
  const SasRecConfig config = TinyModelConfig();
  WhitenRecConfig wc;
  EXPECT_LT(MakeWhitenRecPlus(ds, config, wc)->NumParameters(),
            MakeWhitenRecPlus(ds, config, wc, true)->NumParameters());
}

// ---------------------------------------------------------------------------
// General recommenders
// ---------------------------------------------------------------------------

TEST(GeneralRecTest, GrcnFitsAndScores) {
  const data::Dataset& ds = TinyData().dataset;
  auto rec = MakeGrcn(ds, 16);
  const data::Split split = data::LeaveOneOutSplit(ds);
  TrainConfig config = TinyTrainConfig();
  config.epochs = 2;
  rec->Fit(split, config);
  const EvalResult result =
      EvaluateRanking(rec.get(), split.test, split.train, 8);
  EXPECT_GE(result.recall20, 0.0);
  EXPECT_LE(result.recall50, 1.0);
}

TEST(GeneralRecTest, Bm3FitsAndScores) {
  const data::Dataset& ds = TinyData().dataset;
  auto rec = MakeBm3(ds, 16);
  const data::Split split = data::LeaveOneOutSplit(ds);
  TrainConfig config = TinyTrainConfig();
  config.epochs = 2;
  rec->Fit(split, config);
  const EvalResult result =
      EvaluateRanking(rec.get(), split.test, split.train, 8);
  EXPECT_GE(result.recall20, 0.0);
}

TEST(GeneralRecTest, Names) {
  const data::Dataset& ds = TinyData().dataset;
  EXPECT_EQ(MakeGrcn(ds, 8)->name(), "GRCN(T+ID)");
  EXPECT_EQ(MakeBm3(ds, 8)->name(), "BM3(T+ID)");
}

// ---------------------------------------------------------------------------
// Cold-start end-to-end
// ---------------------------------------------------------------------------

TEST(ColdStartTest, TextModelScoresColdItems) {
  const data::Dataset& ds = TinyData().dataset;
  Rng rng(31);
  const data::ColdSplit cold = data::ColdStartSplit(ds, 0.15, &rng);
  auto rec = MakeSasRecText(ds, TinyModelConfig());
  TrainConfig config = TinyTrainConfig();
  config.epochs = 2;
  rec->Fit(cold.split, config);
  if (!cold.split.test.empty()) {
    const EvalResult result =
        EvaluateRanking(rec.get(), cold.split.test, cold.split.train, 8);
    EXPECT_EQ(result.count, cold.split.test.size());
  }
}

}  // namespace
}  // namespace seqrec
}  // namespace whitenrec
