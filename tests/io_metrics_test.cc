#include <cstdio>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "data/io.h"
#include "data/split.h"
#include "eval/metrics.h"
#include "seqrec/baselines.h"

namespace whitenrec {
namespace {

using linalg::Matrix;
using linalg::Rng;

// ---------------------------------------------------------------------------
// Dataset TSV IO
// ---------------------------------------------------------------------------

data::Dataset SmallDataset() {
  data::Dataset ds;
  ds.name = "toy";
  ds.num_items = 3;
  ds.num_categories = 2;
  ds.sequences = {{0, 1, 2}, {2, 1}};
  ds.item_category = {0, 1, 1};
  ds.text_embeddings = Matrix::FromRows({{1.5, -2.25}, {0.0, 3.125}, {7, 8}});
  return ds;
}

TEST(DatasetIoTest, RoundTrip) {
  const data::Dataset original = SmallDataset();
  const std::string prefix = ::testing::TempDir() + "/ds_roundtrip";
  ASSERT_TRUE(data::SaveDataset(original, prefix).ok());
  auto loaded = data::LoadDataset(prefix);
  ASSERT_TRUE(loaded.ok());
  const data::Dataset& ds = loaded.value();
  EXPECT_EQ(ds.name, "toy");
  EXPECT_EQ(ds.num_items, 3u);
  EXPECT_EQ(ds.num_categories, 2u);
  EXPECT_EQ(ds.sequences, original.sequences);
  EXPECT_EQ(ds.item_category, original.item_category);
  ASSERT_EQ(ds.text_embeddings.rows(), 3u);
  for (std::size_t i = 0; i < original.text_embeddings.size(); ++i) {
    EXPECT_DOUBLE_EQ(ds.text_embeddings.data()[i],
                     original.text_embeddings.data()[i]);
  }
  for (const char* ext : {".meta", ".sequences", ".items"}) {
    std::remove((prefix + ext).c_str());
  }
}

TEST(DatasetIoTest, GeneratedDatasetRoundTrip) {
  data::DatasetProfile p = data::ArtsProfile(0.25);
  p.plm.embed_dim = 16;
  p.plm.calibration_iters = 10;
  const data::GeneratedData gen = data::GenerateDataset(p);
  const std::string prefix = ::testing::TempDir() + "/ds_generated";
  ASSERT_TRUE(data::SaveDataset(gen.dataset, prefix).ok());
  auto loaded = data::LoadDataset(prefix);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().sequences, gen.dataset.sequences);
  EXPECT_EQ(loaded.value().num_items, gen.dataset.num_items);
  for (const char* ext : {".meta", ".sequences", ".items"}) {
    std::remove((prefix + ext).c_str());
  }
}

TEST(DatasetIoTest, LoadMissingFails) {
  auto loaded = data::LoadDataset("/nonexistent/prefix");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST(DatasetIoTest, RejectsOutOfRangeItemId) {
  const data::Dataset ds = SmallDataset();
  const std::string prefix = ::testing::TempDir() + "/ds_badid";
  ASSERT_TRUE(data::SaveDataset(ds, prefix).ok());
  // Corrupt the sequences file with an out-of-range id.
  {
    std::FILE* f = std::fopen((prefix + ".sequences").c_str(), "a");
    std::fputs("99 0\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(data::LoadDataset(prefix).ok());
  for (const char* ext : {".meta", ".sequences", ".items"}) {
    std::remove((prefix + ext).c_str());
  }
}

// Malformed-input matrix: every corruption must surface as a typed error
// naming the file (and usually the line), never as a silently wrong or
// partially populated dataset.

void OverwriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
}

void AppendToFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  ASSERT_NE(f, nullptr);
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
}

struct SavedDataset {
  explicit SavedDataset(const std::string& tag)
      : prefix(::testing::TempDir() + "/ds_" + tag) {
    EXPECT_TRUE(data::SaveDataset(SmallDataset(), prefix).ok());
  }
  ~SavedDataset() {
    for (const char* ext : {".meta", ".sequences", ".items"}) {
      std::remove((prefix + ext).c_str());
    }
  }
  std::string prefix;
};

TEST(DatasetIoMalformedTest, NonNumericSequenceTokenFails) {
  SavedDataset ds("badtok");
  // Pre-hardening, `stream >> item` treated "1x" as a clean end of line and
  // the corruption loaded silently. It must be a typed parse error now.
  AppendToFile(ds.prefix + ".sequences", "1x 2\n");
  auto loaded = data::LoadDataset(ds.prefix);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("line 3"), std::string::npos);
}

TEST(DatasetIoMalformedTest, NegativeSequenceIdFails) {
  SavedDataset ds("negid");
  AppendToFile(ds.prefix + ".sequences", "-1 2\n");
  auto loaded = data::LoadDataset(ds.prefix);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST(DatasetIoMalformedTest, EmptyMetaFails) {
  SavedDataset ds("emptymeta");
  OverwriteFile(ds.prefix + ".meta", "");
  auto loaded = data::LoadDataset(ds.prefix);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST(DatasetIoMalformedTest, MalformedMetaHeaderFails) {
  SavedDataset ds("badmeta");
  OverwriteFile(ds.prefix + ".meta", "three\t2\t2\ntoy\n");
  auto loaded = data::LoadDataset(ds.prefix);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST(DatasetIoMalformedTest, MetaTrailingTokenFails) {
  SavedDataset ds("metatrail");
  OverwriteFile(ds.prefix + ".meta", "3\t2\t2\t9\ntoy\n");
  auto loaded = data::LoadDataset(ds.prefix);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST(DatasetIoMalformedTest, ImplausibleMetaCountsFail) {
  SavedDataset ds("hugemeta");
  OverwriteFile(ds.prefix + ".meta", "99999999999\t2\t2\ntoy\n");
  auto loaded = data::LoadDataset(ds.prefix);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST(DatasetIoMalformedTest, TruncatedItemEmbeddingRowFails) {
  SavedDataset ds("shortrow");
  OverwriteFile(ds.prefix + ".items",
                "0\t0\t1.5 -2.25\n1\t1\t0.0\n2\t1\t7 8\n");
  auto loaded = data::LoadDataset(ds.prefix);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("line 2"), std::string::npos);
}

TEST(DatasetIoMalformedTest, OverlongItemEmbeddingRowFails) {
  SavedDataset ds("longrow");
  OverwriteFile(ds.prefix + ".items",
                "0\t0\t1.5 -2.25\n1\t1\t0.0 3.125 9.0\n2\t1\t7 8\n");
  auto loaded = data::LoadDataset(ds.prefix);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST(DatasetIoMalformedTest, NonNumericEmbeddingValueFails) {
  SavedDataset ds("badfloat");
  OverwriteFile(ds.prefix + ".items",
                "0\t0\t1.5 -2.25\n1\t1\tNaNbug 3.125\n2\t1\t7 8\n");
  auto loaded = data::LoadDataset(ds.prefix);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

// strtod reads "nan" and "inf" cleanly; the loader must refuse them rather
// than hand a non-finite embedding to whitening and training.
TEST(DatasetIoMalformedTest, NonFiniteEmbeddingValueFails) {
  for (const char* value : {"nan", "inf", "-inf"}) {
    SavedDataset ds(std::string("nonfinite_") + value);
    OverwriteFile(ds.prefix + ".items",
                  std::string("0\t0\t1.5 -2.25\n1\t1\t0.0 ") + value +
                      "\n2\t1\t7 8\n");
    auto loaded = data::LoadDataset(ds.prefix);
    ASSERT_FALSE(loaded.ok()) << value;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << value;
    EXPECT_NE(loaded.status().message().find(".items line 2"),
              std::string::npos)
        << loaded.status().message();
  }
}

TEST(DatasetIoMalformedTest, DuplicateItemRowFails) {
  SavedDataset ds("dupitem");
  OverwriteFile(ds.prefix + ".items",
                "0\t0\t1.5 -2.25\n0\t1\t0.0 3.125\n2\t1\t7 8\n");
  auto loaded = data::LoadDataset(ds.prefix);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST(DatasetIoMalformedTest, MissingItemRowFails) {
  SavedDataset ds("missrow");
  OverwriteFile(ds.prefix + ".items", "0\t0\t1.5 -2.25\n2\t1\t7 8\n");
  auto loaded = data::LoadDataset(ds.prefix);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST(DatasetIoMalformedTest, OutOfRangeCategoryFails) {
  SavedDataset ds("badcat");
  OverwriteFile(ds.prefix + ".items",
                "0\t0\t1.5 -2.25\n1\t9\t0.0 3.125\n2\t1\t7 8\n");
  auto loaded = data::LoadDataset(ds.prefix);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(loaded.status().message().find("line 2"), std::string::npos);
}

TEST(DatasetIoMalformedTest, MissingItemsFileFails) {
  SavedDataset ds("noitems");
  std::remove((ds.prefix + ".items").c_str());
  auto loaded = data::LoadDataset(ds.prefix);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

// ---------------------------------------------------------------------------
// MRR and sampled metrics
// ---------------------------------------------------------------------------

TEST(MrrTest, KnownValues) {
  eval::MetricAccumulator acc({20});
  acc.AddRank(0);  // RR 1
  acc.AddRank(1);  // RR 1/2
  acc.AddRank(3);  // RR 1/4
  EXPECT_NEAR(acc.Mrr(), (1.0 + 0.5 + 0.25) / 3.0, 1e-12);
}

TEST(SampledRankTest, PerfectTargetAlwaysRankZero) {
  Rng rng(1);
  std::vector<double> scores(50, 0.0);
  scores[7] = 10.0;
  const std::vector<char> none(50, 0);
  for (int rep = 0; rep < 10; ++rep) {
    EXPECT_EQ(eval::SampledRankOfTarget(scores, 7, none, 20, &rng), 0u);
  }
}

TEST(SampledRankTest, NeverExceedsNumNegatives) {
  Rng rng(2);
  std::vector<double> scores(50);
  for (std::size_t i = 0; i < 50; ++i) scores[i] = static_cast<double>(i);
  const std::vector<char> none(50, 0);
  // Target 0 is the worst item; sampled rank stays <= negatives drawn.
  const std::size_t rank = eval::SampledRankOfTarget(scores, 0, none, 10, &rng);
  EXPECT_LE(rank, 10u);
}

TEST(SampledRankTest, SampledRankUnderestimatesFullRank) {
  // In expectation, sampled rank = full_rank * negatives / (n - 1).
  Rng rng(3);
  std::vector<double> scores(101);
  for (std::size_t i = 0; i < 101; ++i) scores[i] = static_cast<double>(i);
  const std::vector<char> none(101, 0);
  // Target 50 has full rank 50 among 100 others.
  double total = 0.0;
  const int reps = 400;
  for (int rep = 0; rep < reps; ++rep) {
    total += static_cast<double>(
        eval::SampledRankOfTarget(scores, 50, none, 20, &rng));
  }
  EXPECT_NEAR(total / reps, 50.0 * 20.0 / 100.0, 1.0);
}

TEST(SampledRankTest, ExcludedItemsNeverSampled) {
  Rng rng(4);
  std::vector<double> scores = {0.0, 100.0, 100.0, 100.0};
  std::vector<char> excluded = {0, 1, 1, 1};  // everything better is excluded
  EXPECT_EQ(eval::SampledRankOfTarget(scores, 0, excluded, 3, &rng), 0u);
}

// ---------------------------------------------------------------------------
// Stratified and sampled evaluation end to end
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

TEST(StratifiedEvalTest, HeadPlusTailCoversAllInstances) {
  const data::Dataset& ds = TinyData().dataset;
  seqrec::SasRecConfig mc;
  mc.hidden_dim = 16;
  mc.num_blocks = 1;
  mc.max_len = 8;
  auto rec = seqrec::MakeSasRecId(ds, mc);
  const data::Split split = data::LeaveOneOutSplit(ds);
  const seqrec::StratifiedEvalResult sr =
      seqrec::EvaluateRankingByPopularity(rec.get(), split.test, split.train,
                                          8, 0.2);
  EXPECT_EQ(sr.head.count + sr.tail.count, split.test.size());
}

TEST(SampledEvalTest, SampledMetricsNotBelowFull) {
  // With fewer competitors, sampled Recall@20 can only be >= full Recall@20
  // for the same model (in expectation; with a fixed seed we check >=
  // directly on a trained model where the gap is large).
  const data::Dataset& ds = TinyData().dataset;
  seqrec::SasRecConfig mc;
  mc.hidden_dim = 16;
  mc.num_blocks = 1;
  mc.max_len = 8;
  auto rec = seqrec::MakeSasRecId(ds, mc);
  const data::Split split = data::LeaveOneOutSplit(ds);
  seqrec::TrainConfig tc;
  tc.epochs = 3;
  rec->Fit(split, tc);
  const seqrec::EvalResult full =
      seqrec::EvaluateRanking(rec.get(), split.test, split.train, 8);
  const seqrec::EvalResult sampled = seqrec::EvaluateRankingSampled(
      rec.get(), split.test, split.train, 8, /*num_negatives=*/20);
  EXPECT_GE(sampled.recall20 + 1e-12, full.recall20);
}

}  // namespace
}  // namespace whitenrec
