// Bit-level reproducibility of the parallel kernels: training, full-ranking
// evaluation, and whitening fits must produce byte-identical results at any
// thread count (WHITENREC_THREADS / core::SetNumThreads). This is the
// property the deterministic static chunking and fixed-order reductions in
// core/parallel.h exist to guarantee; see DESIGN.md "Parallelism &
// reproducibility". Also exercised under ThreadSanitizer via check-tsan.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel.h"
#include "whitening/whitening.h"
#include "data/generator.h"
#include "data/split.h"
#include "linalg/rng.h"
#include "linalg/stats.h"
#include "seqrec/baselines.h"
#include "seqrec/trainer.h"
#include "scoped_knobs.h"

namespace whitenrec {
namespace {

using linalg::Matrix;
using linalg::Rng;

const std::vector<std::size_t> kThreadCounts = {1, 2, 8};

void ExpectBitwiseEqual(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i])
        << what << " diverges at flat index " << i;
  }
}

// ---------------------------------------------------------------------------
// Whitening / covariance
// ---------------------------------------------------------------------------

// Enough rows for several covariance blocks (block size is 128), so the
// parallel block-Gram + tree-reduction path is genuinely exercised.
Matrix AnisotropicSample() {
  Rng rng(97);
  Matrix x = rng.GaussianMatrix(700, 24, 1.0);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    double* row = x.RowPtr(r);
    for (std::size_t c = 0; c < x.cols(); ++c) {
      row[c] = row[c] * (1.0 + static_cast<double>(c)) + 0.37 * row[0];
    }
  }
  return x;
}

TEST(ThreadDeterminismTest, CovarianceBitwiseIdentical) {
  const Matrix x = AnisotropicSample();
  std::vector<Matrix> covs;
  for (std::size_t t : kThreadCounts) {
    ScopedThreads guard(t);
    covs.push_back(linalg::Covariance(x, 1e-5));
  }
  ExpectBitwiseEqual(covs[0], covs[1], "covariance t=1 vs t=2");
  ExpectBitwiseEqual(covs[0], covs[2], "covariance t=1 vs t=8");
}

TEST(ThreadDeterminismTest, WhiteningFitBitwiseIdenticalPerKind) {
  const Matrix x = AnisotropicSample();
  for (WhiteningKind kind : {WhiteningKind::kPca, WhiteningKind::kZca,
                             WhiteningKind::kCholesky}) {
    std::vector<FittedWhitening> fits;
    std::vector<Matrix> applied;
    for (std::size_t t : kThreadCounts) {
      ScopedThreads guard(t);
      Result<FittedWhitening> fitted = FitWhitening(x, kind, 1e-4);
      ASSERT_TRUE(fitted.ok()) << WhiteningKindName(kind);
      applied.push_back(ApplyWhitening(fitted.value(), x));
      fits.push_back(std::move(fitted).ValueOrDie());
    }
    for (std::size_t v = 1; v < fits.size(); ++v) {
      ExpectBitwiseEqual(fits[0].phi, fits[v].phi, WhiteningKindName(kind));
      ASSERT_EQ(fits[0].mean, fits[v].mean) << WhiteningKindName(kind);
      ExpectBitwiseEqual(applied[0], applied[v], WhiteningKindName(kind));
    }
  }
}

// ---------------------------------------------------------------------------
// Training + evaluation
// ---------------------------------------------------------------------------

const data::GeneratedData& TinyData() {
  static const data::GeneratedData* data = [] {
    data::DatasetProfile p = data::ArtsProfile(0.3);
    p.plm.embed_dim = 16;
    p.plm.calibration_iters = 15;
    return new data::GeneratedData(data::GenerateDataset(p));
  }();
  return *data;
}

struct RunOutcome {
  std::vector<double> losses;
  std::vector<double> valid_ndcg;
  std::vector<Matrix> params;  // every learned parameter, in order
  Matrix test_scores;          // full-catalog scores of a test batch
  seqrec::EvalResult eval;
};

seqrec::SasRecConfig TinyModelConfig() {
  seqrec::SasRecConfig mc;
  mc.hidden_dim = 16;
  mc.num_blocks = 1;
  mc.num_heads = 2;
  mc.ffn_hidden = 32;
  mc.dropout = 0.1;
  mc.max_len = 8;
  mc.seed = 21;
  return mc;
}

// One fresh 3-epoch training of `rec` + full eval at `threads`. Everything
// stochastic (init, shuffling, dropout) is seeded, so any divergence between
// runs can only come from the parallel kernels.
RunOutcome RunTraining(std::unique_ptr<seqrec::TrainableRecommender> rec,
                       std::size_t threads) {
  ScopedThreads guard(threads);
  const data::Split split = data::LeaveOneOutSplit(TinyData().dataset);
  seqrec::TrainConfig tc;
  tc.epochs = 3;
  tc.batch_size = 64;
  tc.learning_rate = 2e-3;
  tc.patience = 100;
  tc.restore_best = false;  // compare the state after exactly 3 epochs
  const seqrec::TrainResult& result = rec->Fit(split, tc);

  RunOutcome out;
  for (const seqrec::EpochLog& log : result.epochs) {
    out.losses.push_back(log.train_loss);
    out.valid_ndcg.push_back(log.valid_ndcg20);
  }
  for (const nn::Parameter* p : rec->Parameters()) {
    out.params.push_back(p->value);
  }
  const std::size_t max_len = TinyModelConfig().max_len;
  out.test_scores = rec->ScoreLastPositions(
      data::MakeEvalBatches(split.test, max_len, /*batch_size=*/64)[0]);
  out.eval =
      seqrec::EvaluateRanking(rec.get(), split.test, split.train, max_len);
  return out;
}

void ExpectRunsBitwiseEqual(const std::vector<RunOutcome>& runs) {
  ASSERT_EQ(runs[0].losses.size(), 3u);
  for (std::size_t v = 1; v < runs.size(); ++v) {
    const RunOutcome& a = runs[0];
    const RunOutcome& b = runs[v];
    // Per-epoch train losses and validation NDCG, bitwise.
    ASSERT_EQ(a.losses, b.losses) << "losses, run " << v;
    ASSERT_EQ(a.valid_ndcg, b.valid_ndcg) << "valid ndcg, run " << v;
    // Every learned parameter matrix, bitwise.
    ASSERT_EQ(a.params.size(), b.params.size());
    for (std::size_t p = 0; p < a.params.size(); ++p) {
      ExpectBitwiseEqual(a.params[p], b.params[p], "parameter");
    }
    ExpectBitwiseEqual(a.test_scores, b.test_scores, "test scores");
    // Full-ranking test metrics (HR/Recall and NDCG at 20/50), bitwise.
    EXPECT_EQ(a.eval.recall20, b.eval.recall20);
    EXPECT_EQ(a.eval.ndcg20, b.eval.ndcg20);
    EXPECT_EQ(a.eval.recall50, b.eval.recall50);
    EXPECT_EQ(a.eval.ndcg50, b.eval.ndcg50);
    EXPECT_EQ(a.eval.count, b.eval.count);
  }
}

TEST(ThreadDeterminismTest, TrainEvalBitwiseIdenticalAcrossThreadCounts) {
  WhitenRecConfig wc;
  wc.out_dim = 16;
  std::vector<RunOutcome> runs;
  for (std::size_t t : kThreadCounts) {
    runs.push_back(RunTraining(
        seqrec::MakeWhitenRec(TinyData().dataset, TinyModelConfig(), wc), t));
  }
  ExpectRunsBitwiseEqual(runs);
}

// The shared training loop beyond the SASRec backbone: FDSA's two
// Transformer streams, its summed item table and the streaming loss.
TEST(ThreadDeterminismTest, FdsaTrainEvalBitwiseIdenticalAcrossThreadCounts) {
  std::vector<RunOutcome> runs;
  for (std::size_t t : kThreadCounts) {
    runs.push_back(RunTraining(
        seqrec::MakeFdsa(TinyData().dataset, TinyModelConfig()), t));
  }
  ExpectRunsBitwiseEqual(runs);
}

}  // namespace
}  // namespace whitenrec
