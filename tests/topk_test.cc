// Streaming top-K and streaming evaluation parity. The contracts under
// test: the bounded TopKSelector must select EXACTLY the same items as the
// partial_sort reference under the canonical (score desc, item id asc)
// order — including adversarial ties and ±inf — regardless of feed order or
// tile width; the streaming evaluation paths must produce bitwise-identical
// ranks, metrics, and recommendation lists to the full-score-row oracle
// (the ScoreLastPositions branch, reached through a wrapper that declines
// ScoreFactors) at every thread count and tile width; and the nth_element
// popularity head split must match a full-sort reference.

#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel.h"
#include "data/generator.h"
#include "data/split.h"
#include "eval/metrics.h"
#include "linalg/gemm.h"
#include "linalg/rng.h"
#include "linalg/topk.h"
#include "seqrec/baselines.h"
#include "seqrec/trainer.h"

namespace whitenrec {
namespace seqrec {
namespace {

using linalg::Matrix;
using linalg::RanksBefore;
using linalg::Rng;
using linalg::ScoredItem;
using linalg::SelectTopK;
using linalg::TopKSelector;

const std::vector<std::size_t> kThreadCounts = {1, 2, 4};

class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t n) : saved_(core::NumThreads()) {
    core::SetNumThreads(n);
  }
  ~ScopedThreads() { core::SetNumThreads(saved_); }

 private:
  std::size_t saved_;
};

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

void ExpectSameSelection(const std::vector<ScoredItem>& got,
                         const std::vector<ScoredItem>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].item, want[i].item) << "position " << i;
    EXPECT_EQ(got[i].score, want[i].score) << "position " << i;
  }
}

// Runs the selector over `scores` in several feed orders / tile widths and
// checks each selection against the partial_sort reference.
void CheckSelectorAgainstReference(const std::vector<double>& scores,
                                   std::size_t k) {
  const std::vector<ScoredItem> want = SelectTopK(scores.data(),
                                                  scores.size(), k);
  TopKSelector sel(k);
  for (std::size_t i = 0; i < scores.size(); ++i) sel.Push(i, scores[i]);
  ExpectSameSelection(sel.SortedDescending(), want);
  for (const std::size_t tile : {1u, 3u, 7u, 64u, 1024u}) {
    sel.Reset();
    for (std::size_t j0 = 0; j0 < scores.size(); j0 += tile) {
      const std::size_t jn = std::min<std::size_t>(tile, scores.size() - j0);
      sel.PushTile(scores.data() + j0, j0, jn);
    }
    ExpectSameSelection(sel.SortedDescending(), want);
  }
}

// ---------------------------------------------------------------------------
// TopKSelector vs. partial_sort reference
// ---------------------------------------------------------------------------

TEST(TopKSelectorTest, MatchesReferenceOnRandomScores) {
  Rng rng(31);
  for (const std::size_t n : {1u, 5u, 97u, 500u}) {
    const Matrix s = rng.GaussianMatrix(1, n, 1.0);
    const std::vector<double> scores(s.data(), s.data() + n);
    for (const std::size_t k : {1u, 2u, 20u, 499u, 500u, 900u}) {
      CheckSelectorAgainstReference(scores, k);
    }
  }
}

TEST(TopKSelectorTest, HeavyTiesResolveByItemId) {
  // Quantize scores to 3 distinct values: selection within a tied band must
  // come out in ascending item id, identically in both implementations.
  Rng rng(32);
  const std::size_t n = 301;
  const Matrix g = rng.GaussianMatrix(1, n, 1.0);
  std::vector<double> scores(n);
  for (std::size_t i = 0; i < n; ++i) {
    scores[i] = std::floor(g.data()[i] * 1.5);
  }
  for (const std::size_t k : {1u, 7u, 50u, 300u}) {
    CheckSelectorAgainstReference(scores, k);
  }
}

TEST(TopKSelectorTest, AllEqualScores) {
  const std::vector<double> scores(64, 2.5);
  CheckSelectorAgainstReference(scores, 10);
  // The winners must be items 0..9 specifically.
  TopKSelector sel(10);
  sel.PushTile(scores.data(), 0, scores.size());
  const auto got = sel.SortedDescending();
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i].item, i);
}

TEST(TopKSelectorTest, InfinitiesAreOrdinaryValues) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> scores = {0.0, -inf, inf, 1.0, -inf, inf, -1.0, 0.0};
  for (const std::size_t k : {1u, 2u, 3u, 5u, 8u, 12u}) {
    CheckSelectorAgainstReference(scores, k);
  }
  TopKSelector sel(3);
  sel.PushTile(scores.data(), 0, scores.size());
  const auto got = sel.SortedDescending();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].item, 2u);  // +inf, smaller id first
  EXPECT_EQ(got[1].item, 5u);
  EXPECT_EQ(got[2].item, 3u);  // 1.0
}

TEST(TopKSelectorTest, KLargerThanCatalogKeepsEverything) {
  const std::vector<double> scores = {3.0, 1.0, 2.0};
  TopKSelector sel(10);
  sel.PushTile(scores.data(), 0, scores.size());
  const auto got = sel.SortedDescending();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].item, 0u);
  EXPECT_EQ(got[1].item, 2u);
  EXPECT_EQ(got[2].item, 1u);
}

TEST(TopKSelectorTest, ResetForgetsCandidates) {
  TopKSelector sel(2);
  sel.Push(0, 100.0);
  sel.Push(1, 99.0);
  sel.Reset();
  EXPECT_EQ(sel.size(), 0u);
  sel.Push(5, 1.0);
  const auto got = sel.SortedDescending();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].item, 5u);
}

// ---------------------------------------------------------------------------
// PopularityHeadSet vs. full-sort reference
// ---------------------------------------------------------------------------

std::vector<char> SortBasedHeadSet(const std::vector<std::size_t>& pop,
                                   std::size_t head_count) {
  std::vector<std::size_t> order(pop.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&pop](std::size_t a, std::size_t b) {
    if (pop[a] != pop[b]) return pop[a] > pop[b];
    return a < b;
  });
  std::vector<char> head(pop.size(), 0);
  for (std::size_t i = 0; i < std::min(head_count, order.size()); ++i) {
    head[order[i]] = 1;
  }
  return head;
}

TEST(PopularityHeadSetTest, MatchesSortReferenceWithTies) {
  Rng rng(33);
  const std::size_t n = 257;
  std::vector<std::size_t> pop(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Few distinct counts -> the head boundary lands inside a tied band.
    pop[i] = rng.UniformInt(6);
  }
  for (const std::size_t head : {0u, 1u, 51u, 128u, 256u, 257u, 400u}) {
    EXPECT_EQ(eval::PopularityHeadSet(pop, head), SortBasedHeadSet(pop, head))
        << "head_count=" << head;
  }
}

TEST(PopularityHeadSetTest, EmptyAndDegenerateInputs) {
  EXPECT_TRUE(eval::PopularityHeadSet({}, 3).empty());
  const std::vector<std::size_t> pop = {5, 5, 5};
  EXPECT_EQ(eval::PopularityHeadSet(pop, 0),
            (std::vector<char>{0, 0, 0}));
  EXPECT_EQ(eval::PopularityHeadSet(pop, 2),
            (std::vector<char>{1, 1, 0}));  // tie broken toward smaller id
  EXPECT_EQ(eval::PopularityHeadSet(pop, 3),
            (std::vector<char>{1, 1, 1}));
}

// ---------------------------------------------------------------------------
// Streaming vs. full-score-row evaluation (end to end)
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

SasRecConfig TinyModelConfig() {
  SasRecConfig config;
  config.hidden_dim = 16;
  config.num_blocks = 1;
  config.num_heads = 2;
  config.ffn_hidden = 32;
  config.dropout = 0.0;
  config.max_len = 8;
  config.seed = 21;
  return config;
}

// The oracle: forwards everything to `inner` but declines ScoreFactors, so
// ranking and top-K take the ScoreLastPositions branch — the full
// (batch, num_items) score matrix, ranked row by row — instead of the
// streaming one.
class FullScoreRowOracle : public Recommender {
 public:
  explicit FullScoreRowOracle(Recommender* inner) : inner_(inner) {}
  std::string name() const override { return inner_->name(); }
  std::size_t num_items() const override { return inner_->num_items(); }
  Matrix ScoreLastPositions(const data::Batch& batch) override {
    return inner_->ScoreLastPositions(batch);
  }

 private:
  Recommender* inner_;
};

void ExpectSameEval(const EvalResult& a, const EvalResult& b) {
  EXPECT_EQ(a.recall20, b.recall20);
  EXPECT_EQ(a.ndcg20, b.ndcg20);
  EXPECT_EQ(a.recall50, b.recall50);
  EXPECT_EQ(a.ndcg50, b.ndcg50);
  EXPECT_EQ(a.count, b.count);
}

TEST(FusedEvalTest, EvaluateRankingMatchesMaterializedBitwise) {
  const data::Dataset& ds = TinyData().dataset;
  auto rec = MakeSasRecId(ds, TinyModelConfig());
  const data::Split split = data::LeaveOneOutSplit(ds);

  FullScoreRowOracle oracle(rec.get());
  const EvalResult ref =
      EvaluateRanking(&oracle, split.test, split.train, 8);
  for (const std::size_t threads : kThreadCounts) {
    ScopedThreads t(threads);
    for (const std::size_t tile : {7u, 64u, 256u, 100000u}) {
      ScopedScoreTile st(tile);
      const EvalResult streamed =
          EvaluateRanking(rec.get(), split.test, split.train, 8);
      ExpectSameEval(streamed, ref);
    }
  }
}

TEST(FusedEvalTest, StratifiedEvalMatchesMaterializedBitwise) {
  const data::Dataset& ds = TinyData().dataset;
  auto rec = MakeSasRecId(ds, TinyModelConfig());
  const data::Split split = data::LeaveOneOutSplit(ds);

  FullScoreRowOracle oracle(rec.get());
  const StratifiedEvalResult ref =
      EvaluateRankingByPopularity(&oracle, split.test, split.train, 8);
  for (const std::size_t threads : kThreadCounts) {
    ScopedThreads t(threads);
    for (const std::size_t tile : {7u, 64u, 256u, 100000u}) {
      ScopedScoreTile st(tile);
      const StratifiedEvalResult streamed =
          EvaluateRankingByPopularity(rec.get(), split.test, split.train, 8);
      ExpectSameEval(streamed.head, ref.head);
      ExpectSameEval(streamed.tail, ref.tail);
    }
  }
}

TEST(FusedEvalTest, TopKRecommendationsIdenticalLists) {
  const data::Dataset& ds = TinyData().dataset;
  auto rec = MakeSasRecId(ds, TinyModelConfig());
  const data::Split split = data::LeaveOneOutSplit(ds);

  FullScoreRowOracle oracle(rec.get());
  const std::vector<std::vector<std::size_t>> ref =
      TopKRecommendations(&oracle, split.test, split.train, 8, 20);
  ASSERT_EQ(ref.size(), split.test.size());
  for (const auto& list : ref) EXPECT_EQ(list.size(), 20u);

  for (const std::size_t threads : kThreadCounts) {
    ScopedThreads t(threads);
    for (const std::size_t tile : {13u, 256u}) {
      ScopedScoreTile st(tile);
      const auto streamed =
          TopKRecommendations(rec.get(), split.test, split.train, 8, 20);
      ASSERT_EQ(streamed.size(), ref.size());
      for (std::size_t u = 0; u < ref.size(); ++u) {
        EXPECT_EQ(streamed[u], ref[u]) << "user " << u
                                       << " threads=" << threads
                                       << " tile=" << tile;
      }
    }
  }
}

TEST(FusedEvalTest, RecommendationsExcludeTrainingItems) {
  const data::Dataset& ds = TinyData().dataset;
  auto rec = MakeSasRecId(ds, TinyModelConfig());
  const data::Split split = data::LeaveOneOutSplit(ds);
  const auto lists =
      TopKRecommendations(rec.get(), split.test, split.train, 8, 20);
  for (std::size_t u = 0; u < lists.size(); ++u) {
    const std::size_t user = split.test[u].user;
    for (const std::size_t item : lists[u]) {
      for (const std::size_t trained : split.train[user]) {
        EXPECT_NE(item, trained) << "user " << user;
      }
    }
  }
}

}  // namespace
}  // namespace seqrec
}  // namespace whitenrec
