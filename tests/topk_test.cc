// Streaming top-K and streaming evaluation parity. The contracts under
// test: the bounded TopKSelector must select EXACTLY the same items as the
// partial_sort reference under the canonical (score desc, item id asc)
// order — including adversarial ties and ±inf — regardless of feed order or
// tile width; the streaming evaluation paths must produce bitwise-identical
// ranks, metrics, and recommendation lists to the full-score-row oracle
// (each batch's ScoreLastPositions matrix, ranked row by row here) for every
// model factory at every thread count and tile width; and the nth_element
// popularity head split must match a full-sort reference; and the exact
// scorer, which streams over an item table packed once at Rebuild, must
// return bitwise the lists of a reference-GEMM + partial_sort oracle at every
// batch size, catalog edge, depth, exclusion shape and thread count.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel.h"
#include "data/generator.h"
#include "data/split.h"
#include "eval/metrics.h"
#include "linalg/gemm.h"
#include "linalg/quant.h"
#include "linalg/rng.h"
#include "linalg/scorer.h"
#include "linalg/topk.h"
#include "seqrec/trainer.h"
#include "all_models.h"
#include "scoped_knobs.h"

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
    // Tiles in descending order: a later tie now carries a smaller id and
    // must displace the root, so PushTile's early reject has to be strict.
    sel.Reset();
    const std::size_t tiles = (scores.size() + tile - 1) / tile;
    for (std::size_t t = tiles; t-- > 0;) {
      const std::size_t j0 = t * tile;
      const std::size_t jn = std::min<std::size_t>(tile, scores.size() - j0);
      sel.PushTile(scores.data() + j0, j0, jn);
    }
    ExpectSameSelection(sel.SortedDescending(), want);
  }
}

// Selects the top k of one full score row: the non-excluded scores
// compacted in ascending id order and selected by partial_sort. Compaction
// keeps ids ascending, so ties still break toward the smaller id.
// `exclusions` is sorted.
std::vector<ScoredItem> SelectFromRow(const double* row, std::size_t n,
                                      const std::vector<std::size_t>& exclusions,
                                      std::size_t k) {
  std::vector<double> kept;
  std::vector<std::size_t> ids;
  for (std::size_t j = 0; j < n; ++j) {
    if (std::binary_search(exclusions.begin(), exclusions.end(), j)) continue;
    kept.push_back(row[j]);
    ids.push_back(j);
  }
  std::vector<ScoredItem> top = SelectTopK(kept.data(), kept.size(), k);
  for (ScoredItem& si : top) si.item = ids[si.item];
  return top;
}

// Oracle for Scorer::TopKBatch: the full score matrix from the reference
// loops, then SelectFromRow on every row.
std::vector<std::vector<ScoredItem>> OracleTopK(
    const Matrix& users, const Matrix& items,
    const std::vector<std::vector<std::size_t>>& exclusions, std::size_t k) {
  Matrix scores(users.rows(), items.rows());
  linalg::NaiveMatMulTransBAcc(users, items, &scores);
  std::vector<std::vector<ScoredItem>> out(users.rows());
  for (std::size_t r = 0; r < users.rows(); ++r) {
    out[r] = SelectFromRow(scores.RowPtr(r), items.rows(),
                           exclusions.empty() ? std::vector<std::size_t>{}
                                              : exclusions[r],
                           k);
  }
  return out;
}

std::vector<std::vector<ScoredItem>> ScorerTopK(
    const linalg::Scorer& scorer, const Matrix& users,
    const std::vector<std::vector<std::size_t>>& exclusions, std::size_t k) {
  std::vector<TopKSelector> selectors(users.rows(), TopKSelector(k));
  scorer.TopKBatch(users, exclusions, &selectors);
  std::vector<std::vector<ScoredItem>> out;
  for (const TopKSelector& sel : selectors) {
    out.push_back(sel.SortedDescending());
  }
  return out;
}

// A random (n, d) table with exact ties planted: a few rows duplicate an
// earlier one, so equal scores must resolve by item id.
Matrix TableWithTies(std::size_t n, std::size_t d, Rng* rng) {
  Matrix items = rng->GaussianMatrix(n, d, 1.0);
  for (std::size_t j = 5; j < n; j += 7) {
    for (std::size_t c = 0; c < d; ++c) items(j, c) = items(j - 5, c);
  }
  return items;
}

// Per-row exclusion shapes, cycling over rows: none, duplicated ids, ids at
// or past the catalog end, and every item (plus a duplicate).
std::vector<std::vector<std::size_t>> MixedExclusions(std::size_t rows,
                                                      std::size_t n) {
  std::vector<std::vector<std::size_t>> excl(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    switch (r % 4) {
      case 0:
        break;
      case 1:
        excl[r] = {0, 0, n / 2, n / 2, n / 2, n - 1, n - 1};
        break;
      case 2:
        excl[r] = {n / 3, n, n + 5};
        break;
      default:
        for (std::size_t j = 0; j < n; ++j) excl[r].push_back(j);
        excl[r].push_back(n - 1);
        break;
    }
    std::sort(excl[r].begin(), excl[r].end());
  }
  return excl;
}

void ExpectSameLists(const std::vector<std::vector<ScoredItem>>& got,
                     const std::vector<std::vector<ScoredItem>>& want,
                     const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t r = 0; r < got.size(); ++r) {
    SCOPED_TRACE(where + " row " + std::to_string(r));
    ExpectSameSelection(got[r], want[r]);
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
// Streaming vs. full-score-row evaluation, every model (end to end)
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

constexpr std::size_t kMaxLen = 8;

// The instance's training items, sorted: what every ranking excludes.
std::vector<std::size_t> SortedExclusions(
    const data::EvalInstance& inst,
    const std::vector<std::vector<std::size_t>>& train_sequences) {
  std::vector<std::size_t> excl;
  if (inst.user < train_sequences.size()) excl = train_sequences[inst.user];
  std::sort(excl.begin(), excl.end());
  return excl;
}

// The oracles rank full score rows: each batch's (batch, num_items) matrix
// from ScoreLastPositions, one row per instance in instance order.
void ForEachScoreRow(
    Recommender* rec, const std::vector<data::EvalInstance>& instances,
    const std::function<void(const data::EvalInstance&, const double*)>&
        per_row) {
  std::size_t next = 0;
  for (const data::Batch& batch :
       data::MakeEvalBatches(instances, kMaxLen, /*batch_size=*/256)) {
    const Matrix scores = rec->ScoreLastPositions(batch);
    for (std::size_t b = 0; b < batch.batch_size; ++b) {
      per_row(instances[next++], scores.RowPtr(b));
    }
  }
}

EvalResult OracleEvaluateRanking(
    Recommender* rec, const std::vector<data::EvalInstance>& instances,
    const std::vector<std::vector<std::size_t>>& train_sequences) {
  const std::size_t n = rec->num_items();
  eval::MetricAccumulator acc({20, 50});
  ForEachScoreRow(rec, instances, [&](const data::EvalInstance& inst,
                                      const double* row) {
    std::vector<char> excluded(n, 0);
    for (std::size_t item : SortedExclusions(inst, train_sequences)) {
      excluded[item] = 1;
    }
    acc.AddRank(eval::RankOfTarget(row, n, inst.target, excluded));
  });
  EvalResult r;
  r.recall20 = acc.RecallAt(20);
  r.ndcg20 = acc.NdcgAt(20);
  r.recall50 = acc.RecallAt(50);
  r.ndcg50 = acc.NdcgAt(50);
  r.count = acc.count();
  return r;
}

// Head = the most-interacted 20% of items (EvaluateRankingByPopularity's
// default), tail the rest; each stratum ranked by the oracle above.
StratifiedEvalResult OracleByPopularity(
    Recommender* rec, const std::vector<data::EvalInstance>& instances,
    const std::vector<std::vector<std::size_t>>& train_sequences) {
  const std::size_t n = rec->num_items();
  std::vector<std::size_t> pop(n, 0);
  for (const auto& seq : train_sequences) {
    for (std::size_t item : seq) ++pop[item];
  }
  const std::vector<char> is_head = eval::PopularityHeadSet(
      pop, std::max<std::size_t>(
               1, static_cast<std::size_t>(0.2 * static_cast<double>(n))));
  std::vector<data::EvalInstance> head;
  std::vector<data::EvalInstance> tail;
  for (const data::EvalInstance& inst : instances) {
    (is_head[inst.target] ? head : tail).push_back(inst);
  }
  StratifiedEvalResult out;
  if (!head.empty()) out.head = OracleEvaluateRanking(rec, head, train_sequences);
  if (!tail.empty()) out.tail = OracleEvaluateRanking(rec, tail, train_sequences);
  return out;
}

std::vector<std::vector<std::size_t>> OracleTopKLists(
    Recommender* rec, const std::vector<data::EvalInstance>& instances,
    const std::vector<std::vector<std::size_t>>& train_sequences,
    std::size_t k) {
  std::vector<std::vector<std::size_t>> lists;
  ForEachScoreRow(rec, instances, [&](const data::EvalInstance& inst,
                                      const double* row) {
    std::vector<std::size_t> list;
    for (const ScoredItem& si :
         SelectFromRow(row, rec->num_items(),
                       SortedExclusions(inst, train_sequences), k)) {
      list.push_back(si.item);
    }
    lists.push_back(std::move(list));
  });
  return lists;
}

void ExpectSameEval(const EvalResult& a, const EvalResult& b) {
  EXPECT_EQ(a.recall20, b.recall20);
  EXPECT_EQ(a.ndcg20, b.ndcg20);
  EXPECT_EQ(a.recall50, b.recall50);
  EXPECT_EQ(a.ndcg50, b.ndcg50);
  EXPECT_EQ(a.count, b.count);
}

// Every model at its initial parameters (trained weights add nothing to a
// parity check), swept over thread counts and score-tile widths.
class FusedEvalTest : public ::testing::TestWithParam<ModelFactory> {
 protected:
  void SetUp() override {
    split_ = data::LeaveOneOutSplit(TinyData().dataset);
    rec_ = GetParam().make(TinyData().dataset);
    // Zero epochs move no parameter, but Fit reads the split: GRCN builds
    // its interaction graph from it.
    TrainConfig no_epochs;
    no_epochs.epochs = 0;
    rec_->Fit(split_, no_epochs);
  }

  data::Split split_;
  std::unique_ptr<TrainableRecommender> rec_;
};

TEST_P(FusedEvalTest, EvaluateRankingMatchesMaterializedBitwise) {
  const EvalResult ref =
      OracleEvaluateRanking(rec_.get(), split_.test, split_.train);
  for (const std::size_t threads : kThreadCounts) {
    ScopedThreads t(threads);
    for (const std::size_t tile : {7u, 64u, 256u, 100000u}) {
      ScopedScoreTile st(tile);
      const EvalResult streamed =
          EvaluateRanking(rec_.get(), split_.test, split_.train, kMaxLen);
      ExpectSameEval(streamed, ref);
    }
  }
}

TEST_P(FusedEvalTest, StratifiedEvalMatchesMaterializedBitwise) {
  const StratifiedEvalResult ref =
      OracleByPopularity(rec_.get(), split_.test, split_.train);
  for (const std::size_t threads : kThreadCounts) {
    ScopedThreads t(threads);
    for (const std::size_t tile : {7u, 64u, 256u, 100000u}) {
      ScopedScoreTile st(tile);
      const StratifiedEvalResult streamed = EvaluateRankingByPopularity(
          rec_.get(), split_.test, split_.train, kMaxLen);
      ExpectSameEval(streamed.head, ref.head);
      ExpectSameEval(streamed.tail, ref.tail);
    }
  }
}

TEST_P(FusedEvalTest, TopKRecommendationsIdenticalLists) {
  // The oracle ranks fp64 score rows; the exact scorer must too.
  ScopedItemQuantKind fp32(linalg::ItemQuantKind::kFp32);
  const std::vector<std::vector<std::size_t>> ref =
      OracleTopKLists(rec_.get(), split_.test, split_.train, 20);
  ASSERT_EQ(ref.size(), split_.test.size());
  for (const auto& list : ref) EXPECT_EQ(list.size(), 20u);

  for (const std::size_t threads : kThreadCounts) {
    ScopedThreads t(threads);
    for (const std::size_t tile : {13u, 256u}) {
      ScopedScoreTile st(tile);
      const auto streamed = TopKRecommendations(rec_.get(), split_.test,
                                                split_.train, kMaxLen, 20);
      ASSERT_EQ(streamed.size(), ref.size());
      for (std::size_t u = 0; u < ref.size(); ++u) {
        EXPECT_EQ(streamed[u], ref[u]) << "user " << u
                                       << " threads=" << threads
                                       << " tile=" << tile;
      }
    }
  }
}

TEST_P(FusedEvalTest, RecommendationsExcludeTrainingItems) {
  const auto lists =
      TopKRecommendations(rec_.get(), split_.test, split_.train, kMaxLen, 20);
  for (std::size_t u = 0; u < lists.size(); ++u) {
    const std::size_t user = split_.test[u].user;
    for (const std::size_t item : lists[u]) {
      for (const std::size_t trained : split_.train[user]) {
        EXPECT_NE(item, trained) << "user " << user;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, FusedEvalTest,
    ::testing::ValuesIn(AllModelFactories(TinyModelConfig())),
    [](const ::testing::TestParamInfo<ModelFactory>& model) {
      return model.param.name;
    });

// ---------------------------------------------------------------------------
// Exact scorer over the packed item table vs. the reference oracle
// ---------------------------------------------------------------------------

TEST(PackedScorerTest, MatchesOracleAcrossShapesExclusionsAndThreads) {
  // Rows go through the register kernel in groups of up to three: 4, 5 and
  // 67 end in a one- or two-row group, and 67 spans two 64-row blocks; n
  // straddles the 8-item strip edges and the 256-item tile; d = 300 spans
  // two k-panels.
  ScopedItemQuantKind fp32(linalg::ItemQuantKind::kFp32);
  Rng rng(23);
  for (const std::size_t d : {1u, 32u, 300u}) {
    for (const std::size_t n : {1u, 7u, 8u, 9u, 255u, 257u, 6000u}) {
      const Matrix items = TableWithTies(n, d, &rng);
      const std::unique_ptr<linalg::Scorer> scorer = linalg::MakeExactScorer();
      scorer->Rebuild(items);
      for (const std::size_t rows : {0u, 1u, 2u, 3u, 4u, 5u, 67u}) {
        const Matrix users = rng.GaussianMatrix(rows, d, 1.0);
        const std::vector<std::vector<std::size_t>> excl =
            MixedExclusions(rows, n);
        for (const std::size_t k : {std::size_t{5}, n + 2}) {
          const auto want_all = OracleTopK(users, items, {}, k);
          const auto want_excl = OracleTopK(users, items, excl, k);
          for (const std::size_t threads : kThreadCounts) {
            ScopedThreads t(threads);
            const std::string where =
                "d=" + std::to_string(d) + " n=" + std::to_string(n) +
                " rows=" + std::to_string(rows) + " k=" + std::to_string(k) +
                " threads=" + std::to_string(threads);
            ExpectSameLists(ScorerTopK(*scorer, users, {}, k), want_all,
                            where + " no exclusions");
            ExpectSameLists(ScorerTopK(*scorer, users, excl, k), want_excl,
                            where + " mixed exclusions");
          }
        }
      }
    }
  }
}

TEST(PackedScorerTest, TileWidthIsInvisible) {
  // Packed tiles round the score tile up to whole 8-item strips; every width
  // must give the same lists.
  ScopedItemQuantKind fp32(linalg::ItemQuantKind::kFp32);
  Rng rng(29);
  const Matrix items = TableWithTies(1001, 24, &rng);
  const std::unique_ptr<linalg::Scorer> scorer = linalg::MakeExactScorer();
  scorer->Rebuild(items);
  for (const std::size_t rows : {1u, 3u, 9u}) {
    const Matrix users = rng.GaussianMatrix(rows, 24, 1.0);
    const auto excl = MixedExclusions(rows, items.rows());
    const auto want = OracleTopK(users, items, excl, 12);
    for (const std::size_t tile : {1u, 7u, 8u, 9u, 100u, 4096u}) {
      ScopedScoreTile st(tile);
      ExpectSameLists(ScorerTopK(*scorer, users, excl, 12), want,
                      "tile=" + std::to_string(tile));
    }
  }
}

TEST(PackedScorerTest, RebuildRepacksTheNewTable) {
  // A refit installs a new table through Rebuild: the scorer must then equal
  // a freshly built one, never the stale pack.
  ScopedItemQuantKind fp32(linalg::ItemQuantKind::kFp32);
  Rng rng(31);
  const Matrix first = TableWithTies(300, 16, &rng);
  const Matrix second = TableWithTies(517, 16, &rng);
  const Matrix users = rng.GaussianMatrix(6, 16, 1.0);
  const auto excl = MixedExclusions(6, 300);

  const std::unique_ptr<linalg::Scorer> reused = linalg::MakeExactScorer();
  reused->Rebuild(first);
  const auto before = ScorerTopK(*reused, users, excl, 10);
  ExpectSameLists(before, OracleTopK(users, first, excl, 10), "first table");

  reused->Rebuild(second);
  EXPECT_EQ(reused->num_items(), second.rows());
  const std::unique_ptr<linalg::Scorer> fresh = linalg::MakeExactScorer();
  fresh->Rebuild(second);
  const auto after = ScorerTopK(*reused, users, excl, 10);
  ExpectSameLists(after, ScorerTopK(*fresh, users, excl, 10), "rebuilt");
  ExpectSameLists(after, OracleTopK(users, second, excl, 10), "second table");
  bool changed = false;
  for (std::size_t r = 0; r < before.size(); ++r) {
    for (std::size_t i = 0; i < before[r].size() && !changed; ++i) {
      changed = before[r][i].item != after[r][i].item ||
                before[r][i].score != after[r][i].score;
    }
  }
  EXPECT_TRUE(changed) << "the two tables should rank differently";
}

TEST(PackedScorerTest, PackedStreamPanelsEqualReferenceGemm) {
  // The raw stream: every panel element bitwise equals the reference
  // kernel's element, and tiles arrive in ascending column order.
  Rng rng(37);
  for (const std::size_t d : {3u, 300u}) {
    const Matrix items = rng.GaussianMatrix(77, d, 1.0);
    linalg::PackedItemTable packed;
    packed.Pack(items);
    EXPECT_EQ(packed.rows(), 77u);
    EXPECT_EQ(packed.cols(), d);
    for (const std::size_t rows : {1u, 2u, 3u, 4u, 70u}) {
      const Matrix users = rng.GaussianMatrix(rows, d, 1.0);
      Matrix want(rows, items.rows());
      linalg::NaiveMatMulTransBAcc(users, items, &want);
      Matrix got(rows, items.rows());
      std::size_t next_col = 0;
      for (const std::size_t threads : kThreadCounts) {
        ScopedThreads t(threads);
        ScopedScoreTile st(16);
        next_col = 0;
        linalg::StreamPackedMatMulTransB(
            users, packed,
            [&](std::size_t i0, std::size_t i1, std::size_t j0,
                std::size_t jn, const Matrix& panel) {
              if (i0 == 0) {
                EXPECT_EQ(j0, next_col);
                next_col = j0 + jn;
              }
              for (std::size_t r = i0; r < i1; ++r) {
                for (std::size_t c = 0; c < jn; ++c) {
                  got(r, j0 + c) = panel(r, c);
                }
              }
            });
        EXPECT_EQ(next_col, items.rows());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              want.size() * sizeof(double)),
                  0)
            << "d=" << d << " rows=" << rows << " threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace seqrec
}  // namespace whitenrec
