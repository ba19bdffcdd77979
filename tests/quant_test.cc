// Quantized item tables and dequantize-in-tile fused scoring (DESIGN.md
// §12). Contracts under test: encoding is explicit round-to-nearest-even
// with a per-row per-64-col-block scale whose roundtrip error is bounded by
// half a quantization step; the streamed quantized GEMM is BITWISE identical
// to materializing the dequantized table — at every thread count, tile
// width, and kernel variant — and to QuantizedItemTable::RowDot; the exact
// and IVF Scorer backends agree bit-for-bit under quantization at
// nprobe == clusters; and the BENCH_compression.json schema validator
// accepts the emitter's output and rejects tampered documents.

#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/compression_report.h"
#include "core/parallel.h"
#include "linalg/gemm.h"
#include "linalg/quant.h"
#include "linalg/rng.h"
#include "linalg/scorer.h"
#include "linalg/topk.h"
#include "retrieval/scorer.h"
#include "json_paths.h"
#include "scoped_knobs.h"

namespace whitenrec {
namespace {

using linalg::ItemQuantKind;
using linalg::Matrix;
using linalg::QuantizedItemTable;
using linalg::Rng;
using linalg::ScoredItem;
using linalg::TopKSelector;

const std::vector<std::size_t> kThreadCounts = {1, 4, 16};

// Item table with interesting structure for the quantizer: per-block
// magnitude swings (so per-block scales differ), exact zeros, and sign
// changes.
Matrix MakeItems(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  Matrix items(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const double magnitude = (c / 64 == 0) ? 1.0 : 100.0;
      items(r, c) = magnitude * rng.Gaussian();
      if ((r * cols + c) % 37 == 0) items(r, c) = 0.0;
    }
  }
  return items;
}

// Streams the quantized product into a dense matrix for comparisons.
Matrix StreamToDense(const Matrix& users, const QuantizedItemTable& table,
                     std::size_t tile) {
  Matrix out(users.rows(), table.rows());
  linalg::StreamQuantMatMulTransBTiles(
      users, table, tile,
      [&](std::size_t i0, std::size_t i1, std::size_t j0, std::size_t jn,
          const Matrix& panel) {
        for (std::size_t r = i0; r < i1; ++r) {
          std::memcpy(out.RowPtr(r) + j0, panel.RowPtr(r),
                      jn * sizeof(double));
        }
      });
  return out;
}

TEST(RoundHalfToEvenTest, KnownValues) {
  EXPECT_EQ(linalg::RoundHalfToEven(0.0), 0.0);
  EXPECT_EQ(linalg::RoundHalfToEven(2.3), 2.0);
  EXPECT_EQ(linalg::RoundHalfToEven(2.7), 3.0);
  EXPECT_EQ(linalg::RoundHalfToEven(-2.3), -2.0);
  EXPECT_EQ(linalg::RoundHalfToEven(-2.7), -3.0);
  // Ties go to the even neighbor, both signs.
  EXPECT_EQ(linalg::RoundHalfToEven(0.5), 0.0);
  EXPECT_EQ(linalg::RoundHalfToEven(1.5), 2.0);
  EXPECT_EQ(linalg::RoundHalfToEven(2.5), 2.0);
  EXPECT_EQ(linalg::RoundHalfToEven(-0.5), 0.0);
  EXPECT_EQ(linalg::RoundHalfToEven(-1.5), -2.0);
  EXPECT_EQ(linalg::RoundHalfToEven(-2.5), -2.0);
}

TEST(QuantizedItemTableTest, Int8RoundtripWithinHalfStep) {
  const Matrix items = MakeItems(40, 80, 41);
  QuantizedItemTable table;
  table.Pack(items, ItemQuantKind::kInt8);
  EXPECT_EQ(table.rows(), 40u);
  EXPECT_EQ(table.cols(), 80u);
  Matrix deq;
  table.DequantizeRowsInto(0, 40, &deq);
  for (std::size_t r = 0; r < items.rows(); ++r) {
    // Per-block scale = blockwise max|v| / 127; RNE encoding keeps every
    // element within half a step of its dequantized value.
    for (std::size_t b = 0; b < 2; ++b) {
      double maxabs = 0.0;
      for (std::size_t c = 64 * b; c < std::min<std::size_t>(80, 64 * b + 64);
           ++c) {
        maxabs = std::max(maxabs, std::fabs(items(r, c)));
      }
      const double step = maxabs / 127.0;
      for (std::size_t c = 64 * b; c < std::min<std::size_t>(80, 64 * b + 64);
           ++c) {
        EXPECT_LE(std::fabs(deq(r, c) - items(r, c)), 0.5 * step + 1e-12)
            << "row " << r << " col " << c;
      }
    }
  }
}

TEST(QuantizedItemTableTest, ExactZerosSurviveQuantization) {
  Matrix items(3, 70);
  // One all-zero row and scattered zeros elsewhere.
  items(1, 0) = 4.0;
  items(1, 69) = -8.0;
  items(2, 5) = 1e-3;
  QuantizedItemTable table;
  table.Pack(items, ItemQuantKind::kInt8);
  Matrix deq;
  table.DequantizeRowsInto(0, 3, &deq);
  for (std::size_t c = 0; c < 70; ++c) EXPECT_EQ(deq(0, c), 0.0);
  EXPECT_EQ(deq(1, 1), 0.0);
  EXPECT_EQ(deq(1, 0), 4.0);
  EXPECT_EQ(deq(1, 69), -8.0);
}

TEST(QuantizedItemTableTest, Bf16RoundtripBounded) {
  const Matrix items = MakeItems(20, 48, 42);
  QuantizedItemTable table;
  table.Pack(items, ItemQuantKind::kBf16);
  Matrix deq;
  table.DequantizeRowsInto(0, 20, &deq);
  for (std::size_t r = 0; r < items.rows(); ++r) {
    for (std::size_t c = 0; c < items.cols(); ++c) {
      // bf16 keeps 8 mantissa bits: relative error <= 2^-8.
      EXPECT_LE(std::fabs(deq(r, c) - items(r, c)),
                std::fabs(items(r, c)) / 256.0 + 1e-30);
    }
  }
  // Short-mantissa values are exact.
  Matrix exact(1, 65);
  exact(0, 0) = 1.0;
  exact(0, 1) = -2.5;
  exact(0, 64) = 0.375;
  QuantizedItemTable etable;
  etable.Pack(exact, ItemQuantKind::kBf16);
  Matrix edeq;
  etable.DequantizeRowsInto(0, 1, &edeq);
  EXPECT_EQ(edeq(0, 0), 1.0);
  EXPECT_EQ(edeq(0, 1), -2.5);
  EXPECT_EQ(edeq(0, 64), 0.375);
}

TEST(QuantizedItemTableTest, PackedBytesShrinkAtLeast4x) {
  const Matrix items = MakeItems(128, 64, 43);
  const std::size_t dense = 128 * 64 * sizeof(double);
  QuantizedItemTable int8;
  int8.Pack(items, ItemQuantKind::kInt8);
  // d = 64: one scale per row -> (64 + 8) bytes/row vs 512.
  EXPECT_EQ(int8.PackedBytes(), 128u * (64 + sizeof(double)));
  EXPECT_GE(dense / int8.PackedBytes(), 7u);
  QuantizedItemTable bf16;
  bf16.Pack(items, ItemQuantKind::kBf16);
  EXPECT_EQ(bf16.PackedBytes(), 128u * 64u * 2u);
  EXPECT_EQ(dense / bf16.PackedBytes(), 4u);
}

// The headline determinism contract: the streamed quantized product is
// bitwise identical to the reference loops over the dequantized table — for
// every thread count x tile width, and with 17 x 80 x tile products landing
// on both sides of the blocked-kernel size threshold — and RowDot
// reproduces single elements.
TEST(QuantStreamTest, BitwiseAcrossThreadsTilesAndKernels) {
  const Matrix users = MakeItems(17, 80, 44);
  const Matrix items = MakeItems(203, 80, 45);
  for (ItemQuantKind kind : {ItemQuantKind::kInt8, ItemQuantKind::kBf16}) {
    QuantizedItemTable table;
    table.Pack(items, kind);
    Matrix deq;
    table.DequantizeRowsInto(0, items.rows(), &deq);
    Matrix reference(users.rows(), deq.rows());
    linalg::NaiveMatMulTransBAcc(users, deq, &reference);
    for (std::size_t threads : kThreadCounts) {
      ScopedThreads scoped_threads(threads);
      for (std::size_t tile : {std::size_t{1}, std::size_t{7},
                               std::size_t{64}, std::size_t{500}}) {
        const Matrix got = StreamToDense(users, table, tile);
        ASSERT_EQ(got.rows(), reference.rows());
        ASSERT_EQ(got.cols(), reference.cols());
        for (std::size_t r = 0; r < got.rows(); ++r) {
          for (std::size_t c = 0; c < got.cols(); ++c) {
            ASSERT_EQ(got(r, c), reference(r, c))
                << "quant=" << linalg::ItemQuantKindName(kind)
                << " threads=" << threads << " tile=" << tile << " ("
                << r << "," << c << ")";
          }
        }
      }
    }
    for (std::size_t r = 0; r < users.rows(); r += 5) {
      for (std::size_t j = 0; j < items.rows(); j += 41) {
        EXPECT_EQ(table.RowDot(users, r, j), reference(r, j));
      }
    }
  }
}

void ExpectSameSelection(const std::vector<ScoredItem>& got,
                         const std::vector<ScoredItem>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].item, want[i].item) << "position " << i;
    EXPECT_EQ(got[i].score, want[i].score) << "position " << i;
  }
}

std::vector<std::vector<ScoredItem>> TopKLists(
    linalg::Scorer* scorer, const Matrix& users,
    const std::vector<std::vector<std::size_t>>& exclusions, std::size_t k) {
  std::vector<TopKSelector> selectors;
  selectors.reserve(users.rows());
  for (std::size_t r = 0; r < users.rows(); ++r) selectors.emplace_back(k);
  scorer->TopKBatch(users, exclusions, &selectors);
  std::vector<std::vector<ScoredItem>> lists;
  lists.reserve(selectors.size());
  for (const TopKSelector& sel : selectors) {
    lists.push_back(sel.SortedDescending());
  }
  return lists;
}

TEST(QuantScorerTest, ExactBackendMatchesDequantizedReference) {
  const Matrix users = MakeItems(9, 80, 46);
  const Matrix items = MakeItems(150, 80, 47);
  std::vector<std::vector<std::size_t>> exclusions(users.rows());
  exclusions[0] = {0, 3, 149};
  exclusions[4] = {10, 11, 12, 13};
  ScopedItemQuantKind scoped(ItemQuantKind::kInt8);
  // Reference: materialized scores over the dequantized table, selected by
  // an independent selector pass.
  QuantizedItemTable table;
  table.Pack(items, ItemQuantKind::kInt8);
  Matrix deq;
  table.DequantizeRowsInto(0, items.rows(), &deq);
  const Matrix scores = linalg::MatMulTransB(users, deq);
  std::vector<std::vector<ScoredItem>> want;
  for (std::size_t r = 0; r < users.rows(); ++r) {
    TopKSelector sel(10);
    for (std::size_t j = 0; j < items.rows(); ++j) {
      if (std::binary_search(exclusions[r].begin(), exclusions[r].end(), j)) {
        continue;
      }
      sel.Push(j, scores(r, j));
    }
    want.push_back(sel.SortedDescending());
  }
  std::unique_ptr<linalg::Scorer> scorer = linalg::MakeExactScorer();
  scorer->Rebuild(items);
  for (std::size_t threads : kThreadCounts) {
    ScopedThreads scoped_threads(threads);
    const auto got = TopKLists(scorer.get(), users, exclusions, 10);
    for (std::size_t r = 0; r < got.size(); ++r) {
      ExpectSameSelection(got[r], want[r]);
    }
  }
}

TEST(QuantScorerTest, IvfAtFullProbesMatchesExactUnderQuant) {
  const Matrix users = MakeItems(7, 64, 48);
  const Matrix items = MakeItems(240, 64, 49);
  for (ItemQuantKind kind : {ItemQuantKind::kInt8, ItemQuantKind::kBf16}) {
    ScopedItemQuantKind scoped(kind);
    std::unique_ptr<linalg::Scorer> exact = linalg::MakeExactScorer();
    exact->Rebuild(items);
    retrieval::ScorerConfig config;
    config.kind = retrieval::ScorerKind::kIvf;
    config.clusters = 12;
    config.nprobe = 12;  // full probe: candidate set == catalog
    std::unique_ptr<linalg::Scorer> ivf = retrieval::MakeScorer(config);
    ivf->Rebuild(items);
    const auto want = TopKLists(exact.get(), users, {}, 10);
    const auto got = TopKLists(ivf.get(), users, {}, 10);
    for (std::size_t r = 0; r < got.size(); ++r) {
      ExpectSameSelection(got[r], want[r]);
    }
  }
}

TEST(QuantScorerTest, Fp32KindIsBitwiseUnchanged) {
  const Matrix users = MakeItems(6, 80, 50);
  const Matrix items = MakeItems(90, 80, 51);
  std::unique_ptr<linalg::Scorer> plain = linalg::MakeExactScorer();
  plain->Rebuild(items);
  const auto want = TopKLists(plain.get(), users, {}, 8);
  ScopedItemQuantKind scoped(ItemQuantKind::kFp32);
  std::unique_ptr<linalg::Scorer> scorer = linalg::MakeExactScorer();
  scorer->Rebuild(items);
  const auto got = TopKLists(scorer.get(), users, {}, 8);
  for (std::size_t r = 0; r < got.size(); ++r) {
    ExpectSameSelection(got[r], want[r]);
  }
}

bench::CompressionBenchResult ValidCompressionResult() {
  bench::CompressionBenchResult result;
  result.top_k = 10;
  result.dim = 64;
  result.queries = 8;
  result.catalog_items = 100;
  result.baseline_bytes = 100 * 64 * sizeof(double);
  result.baseline_ndcg = 0.8;
  bench::CompressionCell reference;
  reference.rank = 64;
  reference.quant = ItemQuantKind::kFp32;
  reference.table_bytes = result.baseline_bytes;
  reference.compression_ratio = 1.0;
  reference.scoring_qps = 1000.0;
  reference.ndcg_at_k = 0.8;
  reference.recall_vs_reference = 1.0;
  reference.ndcg_loss_frac = 0.0;
  bench::CompressionCell int8 = reference;
  int8.quant = ItemQuantKind::kInt8;
  int8.table_bytes = 100 * (64 + sizeof(double));
  int8.compression_ratio = static_cast<double>(result.baseline_bytes) /
                           static_cast<double>(int8.table_bytes);
  int8.ndcg_at_k = 0.796;
  int8.recall_vs_reference = 0.99;
  int8.ndcg_loss_frac = 0.005;
  result.cells = {reference, int8};
  return result;
}

// One case per rule CheckCompressionBench enforces (cell 0 is the fp32
// full-rank reference, cell 1 the int8 cell that meets the floor).
TEST(CompressionReportTest, CheckRejectsEachBrokenRule) {
  ASSERT_TRUE(bench::CheckCompressionBench(ValidCompressionResult()).ok());
  using Grid = bench::CompressionBenchResult;
  struct Case {
    const char* rule;
    void (*mutate)(Grid*);
  };
  const Case cases[] = {
      {"non-empty cells", [](Grid* r) { r->cells.clear(); }},
      {"rank >= 1", [](Grid* r) { r->cells[1].rank = 0; }},
      {"rank <= dim", [](Grid* r) { r->cells[1].rank = 65; }},
      {"positive bytes", [](Grid* r) { r->cells[1].table_bytes = 0; }},
      {"positive ratio", [](Grid* r) { r->cells[1].compression_ratio = 0; }},
      {"NDCG in [0, 1]", [](Grid* r) { r->cells[1].ndcg_at_k = 1.2; }},
      {"recall in [0, 1]",
       [](Grid* r) { r->cells[1].recall_vs_reference = -0.1; }},
      {"reference present", [](Grid* r) { r->cells[0].rank = 32; }},
      {"reference at ratio 1",
       [](Grid* r) { r->cells[0].compression_ratio = 1.5; }},
      {"reference at zero loss",
       [](Grid* r) { r->cells[0].ndcg_loss_frac = 0.001; }},
      {">= 4x at <= 1% loss",
       [](Grid* r) { r->cells[1].ndcg_loss_frac = 0.02; }},
  };
  for (const Case& c : cases) {
    Grid result = ValidCompressionResult();
    c.mutate(&result);
    EXPECT_FALSE(bench::CheckCompressionBench(result).ok()) << c.rule;
  }
}

// The key paths and JSON kinds readers of BENCH_compression.json depend
// on; the writer must emit exactly these, with quant written by name.
TEST(CompressionReportTest, JsonKeepsTheCompressionSchema) {
  const std::set<std::string> want = PathSet(
      "$:object $.baseline_bytes:number $.baseline_ndcg:number "
      "$.bench:string $.catalog_items:number $.cells:array "
      "$.cells[]:object $.cells[].compression_ratio:number "
      "$.cells[].ndcg_at_k:number $.cells[].ndcg_loss_frac:number "
      "$.cells[].quant:string $.cells[].rank:number "
      "$.cells[].recall_vs_reference:number "
      "$.cells[].scoring_qps:number $.cells[].table_bytes:number "
      "$.dim:number $.queries:number $.top_k:number");
  const std::string json =
      bench::CompressionBenchJson(ValidCompressionResult());
  EXPECT_EQ(JsonPaths(json), want);
  EXPECT_NE(json.find("\"bench\": \"compression\""), std::string::npos);
  EXPECT_NE(json.find("\"quant\": \"int8\""), std::string::npos);
}

}  // namespace
}  // namespace whitenrec
