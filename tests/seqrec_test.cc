#include <algorithm>
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "data/split.h"
#include "eval/alignment_uniformity.h"
#include "eval/conditioning.h"
#include "eval/metrics.h"
#include "linalg/gemm.h"
#include "nn/loss.h"
#include "seqrec/baselines.h"
#include "seqrec/general_rec.h"
#include "seqrec/item_encoder.h"
#include "seqrec/model.h"
#include "seqrec/trainer.h"

namespace whitenrec {
namespace seqrec {
namespace {

using linalg::Matrix;
using linalg::Rng;

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
  for (std::size_t c = 0; c < s1.cols(); ++c)
    EXPECT_NEAR(s1(0, c), s2(0, c), 1e-9);
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
