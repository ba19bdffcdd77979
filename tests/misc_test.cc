// Cross-cutting tests: Status/Result plumbing, determinism properties,
// equivalences between transforms, and behavioural edge cases that do not
// belong to a single module's suite.

#include <cmath>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/json.h"
#include "core/status.h"
#include "whitening/whitening.h"
#include "data/generator.h"
#include "data/split.h"
#include "linalg/stats.h"
#include "seqrec/baselines.h"
#include "text/catalog.h"
#include "text/sim_plm.h"
#include "all_models.h"

namespace whitenrec {
namespace {

using linalg::Matrix;
using linalg::Rng;

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesMessage) {
  const Status s = Status::NumericalError("cholesky blew up");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNumericalError);
  EXPECT_EQ(s.message(), "cholesky blew up");
  EXPECT_EQ(s.ToString(), "cholesky blew up");
}

TEST(StatusTest, FactoryCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotConverged("x").code(), StatusCode::kNotConverged);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(std::move(r).ValueOrDie(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::InvalidArgument("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "nope");
}

TEST(ResultTest, MutableValue) {
  Result<std::vector<int>> r(std::vector<int>{1});
  r.value().push_back(2);
  EXPECT_EQ(r.value().size(), 2u);
}

// ---------------------------------------------------------------------------
// JSON reader: nesting depth is bounded
// ---------------------------------------------------------------------------

// Deep '[' or '{"a":' nesting used to recurse once per level and overflow
// the stack (a 100 kB input crashed the process). It must come back as a
// clean InvalidArgument, both for hostile depths and just past the cap.
TEST(JsonDepthTest, DeepNestingIsRejectedNotACrash) {
  for (const std::size_t depth : {257u, 100000u}) {
    std::string arrays(depth, '[');
    std::string objects;
    for (std::size_t i = 0; i < depth; ++i) objects += "{\"a\":";
    for (const std::string& text : {arrays, objects}) {
      core::JsonValue out;
      const Status s = core::ParseJson(text, &out);
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << "depth " << depth;
      EXPECT_NE(s.message().find("nesting too deep"), std::string::npos)
          << s.message();
    }
  }
}

TEST(JsonDepthTest, NestingAtTheCapStillParses) {
  const std::size_t depth = 256;
  const std::string arrays =
      std::string(depth, '[') + "1" + std::string(depth, ']');
  std::string objects;
  for (std::size_t i = 0; i < depth; ++i) objects += "{\"a\":";
  objects += "1" + std::string(depth, '}');
  for (const std::string& text : {arrays, objects}) {
    core::JsonValue out;
    ASSERT_TRUE(core::ParseJson(text, &out).ok());
    const core::JsonValue* v = &out;
    for (std::size_t i = 0; i < depth; ++i) {
      v = v->kind == core::JsonValue::Kind::kArray ? &v->array.at(0)
                                                   : &v->object.at("a");
    }
    EXPECT_EQ(v->kind, core::JsonValue::Kind::kNumber);
    EXPECT_EQ(v->number, 1.0);
  }
}

// ---------------------------------------------------------------------------
// JSON writer and reader agree
// ---------------------------------------------------------------------------

// Every ASCII byte, control bytes included, must come back from
// ParseJson(Json::Dump()) as itself, in keys and in values: the writer's
// \u00XX escapes must decode to the byte, not to the text "u00XX".
TEST(JsonRoundTripTest, EveryAsciiByteSurvivesInKeysAndValues) {
  for (int b = 0; b < 0x80; ++b) {
    const std::string s = std::string("a") + static_cast<char>(b) + "b";
    const std::string text = core::Json::Obj()
                                 .Set(s, core::Json::Str(s))
                                 .Set("list", core::Json::Arr().Push(
                                                  core::Json::Str(s)))
                                 .Dump();
    core::JsonValue doc;
    const Status parsed = core::ParseJson(text, &doc);
    ASSERT_TRUE(parsed.ok()) << "byte " << b << ": " << parsed.message();
    const auto it = doc.object.find(s);
    ASSERT_NE(it, doc.object.end()) << "byte " << b;
    EXPECT_EQ(it->second.str, s) << "byte " << b;
    ASSERT_EQ(doc.object.at("list").array.size(), 1u);
    EXPECT_EQ(doc.object.at("list").array[0].str, s) << "byte " << b;
  }
}

TEST(JsonRoundTripTest, ScalarsRenderAsTheReaderExpects) {
  using core::Json;
  core::JsonValue doc;
  ASSERT_TRUE(core::ParseJson(Json::Arr()
                                  .Push(Json::Num(0.1))
                                  .Push(Json::Int(-7))
                                  .Push(Json::Uint(18446744073709551615ull))
                                  .Dump(),
                              &doc)
                  .ok());
  EXPECT_EQ(doc.array.at(0).number, 0.1);  // %.17g round-trips every double
  EXPECT_EQ(doc.array.at(1).number, -7.0);
  EXPECT_EQ(doc.array.at(2).number, 18446744073709551615.0);
  // A non-finite number renders as text the reader refuses.
  EXPECT_FALSE(core::ParseJson(Json::Num(std::nan("")).Dump(), &doc).ok());
}

TEST(JsonRoundTripTest, ReaderDecodesEscapesAndRejectsUnknownOnes) {
  core::JsonValue doc;
  ASSERT_TRUE(
      core::ParseJson(R"("\"\\\/\b\f\n\r\tA\u007F\u001f")", &doc).ok());
  EXPECT_EQ(doc.str, "\"\\/\b\f\n\r\tA\x7f\x1f");
  for (const char* bad : {R"("\u0080")", R"("\u00e9")", R"("\ud83d")",
                          R"("\u12")", R"("\u00g1")", R"("\x41")",
                          R"("\q")"}) {
    const Status s = core::ParseJson(bad, &doc);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << bad;
  }
}

// Text a lax reader would accept, each case a single document: numbers
// outside RFC 8259's grammar, raw control bytes in strings, duplicate keys.
// Valid neighbours of each case must still parse.
TEST(JsonStrictTest, RefusesTextOutsideTheGrammar) {
  struct Case {
    std::string text;
    bool ok;
  };
  const std::vector<Case> cases = {
      {"+1", false},           {"01", false},
      {"-01", false},          {"00", false},
      {".5", false},           {"1.", false},
      {"-.5", false},          {"1.e3", false},
      {"1e999", false},        {"[1,+2]", false},
      {"{\"a\":01}", false},   {"\"a\x01" "b\"", false},
      {"\"\t\"", false},          {"{\"k\x1f\":1}", false},
      {"{\"a\":1,\"a\":2}", false},
      {"{\"a\":{\"b\":1,\"b\":1}}", false},
      {"0", true},             {"-0", true},
      {"10", true},            {"0.5", true},
      {"-1.25e-3", true},      {"1E+2", true},
      {"1e308", true},         {"\"a\\u0001b\\t\"", true},
      {"{\"a\":1,\"b\":1}", true},
      {"[{\"a\":1},{\"a\":2}]", true},
  };
  for (const Case& c : cases) {
    core::JsonValue doc;
    const Status s = core::ParseJson(c.text, &doc);
    if (c.ok) {
      EXPECT_TRUE(s.ok()) << c.text << ": " << s.message();
    } else {
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << c.text;
    }
  }
}

// A value passed to ParseJson a second time holds only the second document,
// so a reused value can neither grow an array nor see a false duplicate key.
TEST(JsonStrictTest, ReusedValueHoldsOnlyTheLastDocument) {
  core::JsonValue doc;
  ASSERT_TRUE(core::ParseJson("[1,2]", &doc).ok());
  ASSERT_TRUE(core::ParseJson("[3]", &doc).ok());
  ASSERT_EQ(doc.array.size(), 1u);
  EXPECT_EQ(doc.array[0].number, 3.0);
  ASSERT_TRUE(core::ParseJson("{\"a\":1}", &doc).ok());
  ASSERT_TRUE(core::ParseJson("{\"b\":1}", &doc).ok());
  EXPECT_EQ(doc.object.count("a"), 0u);
}

// ---------------------------------------------------------------------------
// Equivalences and invariances
// ---------------------------------------------------------------------------

TEST(EquivalenceTest, ZcaWithFullGroupsEqualsBatchNorm) {
  // Group whitening with G = d_t whitens each 1-wide group, which is exactly
  // per-dimension standardization (BN).
  Rng rng(1);
  Matrix x = rng.GaussianMatrix(200, 6, 1.0);
  for (std::size_t r = 0; r < x.rows(); ++r) x(r, 2) *= 7.0;
  auto grouped = WhitenMatrix(x, 6, WhiteningKind::kZca, 1e-9);
  auto bn = WhitenMatrix(x, 1, WhiteningKind::kBatchNorm, 1e-9);
  ASSERT_TRUE(grouped.ok());
  ASSERT_TRUE(bn.ok());
  for (std::size_t i = 0; i < grouped.value().size(); ++i) {
    EXPECT_NEAR(grouped.value().data()[i], bn.value().data()[i], 1e-9);
  }
}

TEST(EquivalenceTest, WhiteningInvariantToInputShift) {
  // Adding a constant vector to every row must not change the whitened
  // output (the transform centers first).
  Rng rng(2);
  const Matrix x = rng.GaussianMatrix(150, 4, 1.0);
  Matrix shifted = x;
  for (std::size_t r = 0; r < shifted.rows(); ++r) {
    double* row = shifted.RowPtr(r);
    for (std::size_t c = 0; c < 4; ++c) {
      row[c] += 100.0 * static_cast<double>(c + 1);
    }
  }
  auto z1 = WhitenMatrix(x, 1, WhiteningKind::kZca, 1e-8);
  auto z2 = WhitenMatrix(shifted, 1, WhiteningKind::kZca, 1e-8);
  ASSERT_TRUE(z1.ok());
  ASSERT_TRUE(z2.ok());
  for (std::size_t i = 0; i < z1.value().size(); ++i) {
    EXPECT_NEAR(z1.value().data()[i], z2.value().data()[i], 1e-6);
  }
}

TEST(EquivalenceTest, ZcaInvariantToInputScale) {
  // Scaling the whole input by a constant leaves ZCA output unchanged.
  Rng rng(3);
  const Matrix x = rng.GaussianMatrix(150, 4, 1.0);
  const Matrix scaled = linalg::Scale(x, 17.0);
  auto z1 = WhitenMatrix(x, 1, WhiteningKind::kZca, 1e-12);
  auto z2 = WhitenMatrix(scaled, 1, WhiteningKind::kZca, 1e-12);
  ASSERT_TRUE(z1.ok());
  ASSERT_TRUE(z2.ok());
  for (std::size_t i = 0; i < z1.value().size(); ++i) {
    EXPECT_NEAR(z1.value().data()[i], z2.value().data()[i], 1e-5);
  }
}

class WhitenDeterminismTest : public ::testing::TestWithParam<WhiteningKind> {};

TEST_P(WhitenDeterminismTest, SameInputSameOutput) {
  Rng rng(4);
  const Matrix x = rng.GaussianMatrix(100, 5, 1.0);
  auto z1 = WhitenMatrix(x, 1, GetParam());
  auto z2 = WhitenMatrix(x, 1, GetParam());
  ASSERT_TRUE(z1.ok());
  ASSERT_TRUE(z2.ok());
  for (std::size_t i = 0; i < z1.value().size(); ++i) {
    EXPECT_DOUBLE_EQ(z1.value().data()[i], z2.value().data()[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, WhitenDeterminismTest,
                         ::testing::Values(WhiteningKind::kZca,
                                           WhiteningKind::kPca,
                                           WhiteningKind::kCholesky,
                                           WhiteningKind::kBatchNorm));

// ---------------------------------------------------------------------------
// End-to-end determinism
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

seqrec::SasRecConfig TinyConfig() {
  seqrec::SasRecConfig config;
  config.hidden_dim = 16;
  config.num_blocks = 1;
  config.num_heads = 2;
  config.ffn_hidden = 32;
  config.dropout = 0.1;
  config.max_len = 8;
  return config;
}

TEST(DeterminismTest, TrainingIsReproducibleFromSeed) {
  const data::Dataset& ds = TinyData().dataset;
  const data::Split split = data::LeaveOneOutSplit(ds);
  seqrec::TrainConfig tc;
  tc.epochs = 3;
  auto run = [&]() {
    auto rec = seqrec::MakeSasRecId(ds, TinyConfig());
    rec->Fit(split, tc);
    return seqrec::EvaluateRanking(rec.get(), split.test, split.train, 8);
  };
  const seqrec::EvalResult a = run();
  const seqrec::EvalResult b = run();
  EXPECT_DOUBLE_EQ(a.recall20, b.recall20);
  EXPECT_DOUBLE_EQ(a.ndcg20, b.ndcg20);
}

TEST(DeterminismTest, DifferentSeedsGiveDifferentModels) {
  const data::Dataset& ds = TinyData().dataset;
  const data::Split split = data::LeaveOneOutSplit(ds);
  seqrec::TrainConfig tc;
  tc.epochs = 2;
  seqrec::SasRecConfig c1 = TinyConfig();
  seqrec::SasRecConfig c2 = TinyConfig();
  c2.seed = 777;
  auto r1 = seqrec::MakeSasRecId(ds, c1);
  auto r2 = seqrec::MakeSasRecId(ds, c2);
  r1->Fit(split, tc);
  r2->Fit(split, tc);
  const auto e1 =
      seqrec::EvaluateRanking(r1.get(), split.test, split.train, 8);
  const auto e2 =
      seqrec::EvaluateRanking(r2.get(), split.test, split.train, 8);
  // Equality of every metric across seeds would indicate the seed is dead.
  EXPECT_FALSE(e1.recall20 == e2.recall20 && e1.ndcg20 == e2.ndcg20 &&
               e1.recall50 == e2.recall50 && e1.ndcg50 == e2.ndcg50);
}

TEST(DeterminismTest, SimPlmEncodingIsStablePerDocument) {
  // Re-encoding the same tokens (e.g. a cold item arriving later) must give
  // the identical embedding — including the hash-derived corpus noise.
  const data::GeneratedData& gen = TinyData();
  data::DatasetProfile p = data::ArtsProfile(0.3);
  p.plm.embed_dim = 16;
  p.plm.calibration_iters = 15;
  linalg::Rng rng(p.seed);
  const text::Catalog catalog = text::GenerateCatalog(p.catalog, &rng);
  text::SimPlm plm(catalog, p.plm, &rng);
  const Matrix once = plm.Encode({catalog.items[0].tokens});
  const Matrix twice = plm.Encode({catalog.items[0].tokens});
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_DOUBLE_EQ(once.data()[i], twice.data()[i]);
  }
  (void)gen;
}

// ---------------------------------------------------------------------------
// Trainer behaviours
// ---------------------------------------------------------------------------

TEST(TrainerBehaviourTest, WeightDecayShrinksParameterNorm) {
  const data::Dataset& ds = TinyData().dataset;
  const data::Split split = data::LeaveOneOutSplit(ds);
  seqrec::TrainConfig plain;
  plain.epochs = 4;
  plain.restore_best = false;
  seqrec::TrainConfig decayed = plain;
  decayed.weight_decay = 0.1;

  auto norm_after = [&](const seqrec::TrainConfig& tc) {
    auto rec = seqrec::MakeSasRecId(ds, TinyConfig());
    rec->Fit(split, tc);
    double norm = 0.0;
    for (nn::Parameter* p : rec->model()->Parameters()) {
      norm += p->value.FrobeniusNorm();
    }
    return norm;
  };
  EXPECT_LT(norm_after(decayed), norm_after(plain));
}

class TrainerBehaviourTest : public ::testing::TestWithParam<ModelFactory> {};

// With restore_best, validating after Fit reproduces the best recorded N@20
// bitwise: the restore is a byte copy and validation is a pure function of
// the parameters. At learning rate 1e-2 with patience 2, every model stops
// early well inside 40 epochs, so each one's best epoch precedes its last
// and the restore is exercised.
TEST_P(TrainerBehaviourTest, RestoreBestKeepsValidationMetric) {
  seqrec::TrainConfig tc;
  tc.epochs = 40;
  tc.learning_rate = 1e-2;
  tc.patience = 2;
  tc.restore_best = true;
  const data::Split split = data::LeaveOneOutSplit(TinyData().dataset);
  const std::unique_ptr<seqrec::TrainableRecommender> rec =
      GetParam().make(TinyData().dataset);
  const seqrec::TrainResult result = rec->Fit(split, tc);
  const double after =
      seqrec::ValidationNdcg20(rec.get(), split.valid, split.train, 8);
  ASSERT_FALSE(result.epochs.empty());
  std::ostringstream curve;
  for (const seqrec::EpochLog& log : result.epochs) {
    curve << ' ' << log.valid_ndcg20;
    EXPECT_GT(log.seconds, 0.0) << "epoch " << log.epoch;
  }
  EXPECT_LT(result.best_epoch + 1, result.epochs.size())
      << "best epoch is the last one; validation N@20 per epoch:"
      << curve.str();
  EXPECT_EQ(after, result.best_valid_ndcg20);
  EXPECT_GT(result.avg_epoch_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, TrainerBehaviourTest,
    ::testing::ValuesIn(AllModelFactories(TinyConfig())),
    [](const ::testing::TestParamInfo<ModelFactory>& model) {
      return model.param.name;
    });

TEST(TrainerBehaviourTest, MoreEpochsNeverHurtBestValidation) {
  const data::Dataset& ds = TinyData().dataset;
  const data::Split split = data::LeaveOneOutSplit(ds);
  seqrec::TrainConfig short_tc;
  short_tc.epochs = 2;
  short_tc.patience = 99;
  seqrec::TrainConfig long_tc = short_tc;
  long_tc.epochs = 6;
  auto a = seqrec::MakeSasRecId(ds, TinyConfig());
  auto b = seqrec::MakeSasRecId(ds, TinyConfig());
  const double best_short = a->Fit(split, short_tc).best_valid_ndcg20;
  const double best_long = b->Fit(split, long_tc).best_valid_ndcg20;
  // Identical seeds: the long run revisits the short run's epochs first.
  EXPECT_GE(best_long + 1e-12, best_short);
}

// ---------------------------------------------------------------------------
// Headline behaviour on the tiny profile
// ---------------------------------------------------------------------------

TEST(HeadlineTest, WhitenRecBeatsRawTextModel) {
  // The paper's Table I direction, checked end-to-end. The 16-dim tiny
  // profile is too benign for a reliable gap, so this test uses a 32-dim
  // profile with stronger correlated corpus noise — the regime the paper's
  // finding is about.
  data::DatasetProfile p = data::ArtsProfile(0.35);
  p.plm.embed_dim = 32;
  p.plm.calibration_iters = 15;
  p.plm.corpus_noise_scale = 3.0;
  const data::GeneratedData gen = data::GenerateDataset(p);
  const data::Dataset& ds = gen.dataset;
  const data::Split split = data::LeaveOneOutSplit(ds);
  seqrec::TrainConfig tc;
  tc.epochs = 8;
  auto text = seqrec::MakeSasRecText(ds, TinyConfig());
  text->Fit(split, tc);
  WhitenRecConfig wc;
  auto whiten = seqrec::MakeWhitenRec(ds, TinyConfig(), wc);
  whiten->Fit(split, tc);
  const auto rt =
      seqrec::EvaluateRanking(text.get(), split.test, split.train, 8);
  const auto rw =
      seqrec::EvaluateRanking(whiten.get(), split.test, split.train, 8);
  EXPECT_GT(rw.ndcg20, rt.ndcg20);
}

TEST(HeadlineTest, WhitenedFeaturesAreIsotropicEndToEnd) {
  const data::Dataset& ds = TinyData().dataset;
  Rng m1(1), m2(2);
  const double raw_cos =
      linalg::MeanPairwiseCosine(ds.text_embeddings, &m1);
  auto z = WhitenMatrix(ds.text_embeddings, 1, WhiteningKind::kZca);
  ASSERT_TRUE(z.ok());
  const double white_cos = linalg::MeanPairwiseCosine(z.value(), &m2);
  EXPECT_GT(raw_cos, 0.7);
  EXPECT_LT(std::fabs(white_cos), 0.15);
}

// ---------------------------------------------------------------------------
// Idempotence of evaluation paths (guards against stale forward caches)
// ---------------------------------------------------------------------------

TEST(IdempotenceTest, SasRecScoringIsRepeatable) {
  const data::Dataset& ds = TinyData().dataset;
  auto rec = seqrec::MakeWhitenRecPlus(ds, TinyConfig(), WhitenRecConfig{});
  const data::Split split = data::LeaveOneOutSplit(ds);
  const auto batches = data::MakeEvalBatches(split.valid, 8, 16);
  const Matrix a = rec->ScoreLastPositions(batches[0]);
  const Matrix b = rec->ScoreLastPositions(batches[0]);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_DOUBLE_EQ(a.data()[i], b.data()[i]);
}

TEST(IdempotenceTest, EvaluationAfterTrainingIsRepeatable) {
  const data::Dataset& ds = TinyData().dataset;
  auto rec = seqrec::MakeSasRecText(ds, TinyConfig());
  const data::Split split = data::LeaveOneOutSplit(ds);
  seqrec::TrainConfig tc;
  tc.epochs = 2;
  rec->Fit(split, tc);
  const auto r1 = seqrec::EvaluateRanking(rec.get(), split.test, split.train, 8);
  const auto r2 = seqrec::EvaluateRanking(rec.get(), split.test, split.train, 8);
  EXPECT_DOUBLE_EQ(r1.recall20, r2.recall20);
  EXPECT_DOUBLE_EQ(r1.ndcg50, r2.ndcg50);
}

// ---------------------------------------------------------------------------
// Generator invariants
// ---------------------------------------------------------------------------

TEST(GeneratorInvariantTest, SequencesRespectMaxLen) {
  const data::GeneratedData& gen = TinyData();
  const data::DatasetProfile reference = data::ArtsProfile(0.3);
  for (const auto& seq : gen.dataset.sequences) {
    EXPECT_LE(seq.size(), reference.max_len);
  }
}

TEST(GeneratorInvariantTest, FoodTextsShorterThanArts) {
  // Paper Sec. V-E: Food descriptions average 3.8 words vs 20.5 for Amazon.
  linalg::Rng rng1(1), rng2(1);
  data::DatasetProfile arts = data::ArtsProfile(0.3);
  data::DatasetProfile food = data::FoodProfile(0.6);
  const text::Catalog ca = text::GenerateCatalog(arts.catalog, &rng1);
  const text::Catalog cf = text::GenerateCatalog(food.catalog, &rng2);
  auto mean_tokens = [](const text::Catalog& c) {
    double total = 0.0;
    for (const auto& item : c.items) {
      total += static_cast<double>(item.tokens.size());
    }
    return total / static_cast<double>(c.items.size());
  };
  EXPECT_LT(mean_tokens(cf), mean_tokens(ca));
}

TEST(GeneratorInvariantTest, PairwiseCosinesDeterministicGivenSeed) {
  Rng data_rng(5);
  const Matrix x = data_rng.GaussianMatrix(60, 8, 1.0);
  Rng a(3), b(3);
  EXPECT_EQ(linalg::PairwiseCosines(x, &a, 100),
            linalg::PairwiseCosines(x, &b, 100));
}

}  // namespace
}  // namespace whitenrec
