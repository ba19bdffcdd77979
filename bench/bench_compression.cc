// Compressed-inference benchmark (DESIGN.md §12): sweeps whitening rank
// (d, d/2, d/4 via WhiteningOptions::rank truncation) against item-table
// representation (fp32, int8, bf16 via the linalg::QuantizedItemTable used
// behind the Scorer seam) and measures, per cell, the packed table bytes,
// fused-scoring throughput, NDCG@K against the known per-query target, and
// recall@K of the cell's top-K lists vs the fp32 full-rank reference lists.
// Writes out/BENCH_compression.json (read back and parsed by
// bench::WriteArtifact) and exits 0 only if the grid passes
// bench::CheckCompressionBench, which includes the acceptance floor: some
// cell must reach >= 4x memory reduction at <= 1% NDCG@K loss.
//
// Knobs: --threads, WHITENREC_THREADS, WHITENREC_OUT_DIR, and
//   WHITENREC_COMPRESS_ITEMS   catalog size     (default 200000)
//   WHITENREC_COMPRESS_QUERIES query batch size (default 256)
//
// Rank truncation here is column slicing of the full-rank PCA-whitened
// table: the truncated transform is the row prefix of the full PCA
// transform bitwise (tests/whitening_test.cc asserts it), so slicing the
// applied matrix is exactly what a rank-k fit would have produced.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/artifact.h"
#include "bench/compression_report.h"
#include "bench_common.h"
#include "eval/metrics.h"
#include "linalg/quant.h"
#include "linalg/rng.h"
#include "linalg/scorer.h"
#include "linalg/topk.h"
#include "whitening/whitening.h"

namespace whitenrec {
namespace {

using linalg::Matrix;

// Leading `rank` columns of `x` — the rank-truncated whitened space.
Matrix ColumnPrefix(const Matrix& x, std::size_t rank) {
  Matrix out(x.rows(), rank);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    std::memcpy(out.RowPtr(r), x.RowPtr(r), rank * sizeof(double));
  }
  return out;
}

// Mean NDCG@K with one known relevant item per query (the catalog row the
// query was perturbed from): 1/log2(rank + 2) when it made the list.
double MeanNdcg(const std::vector<std::vector<linalg::ScoredItem>>& lists,
                const std::vector<std::size_t>& targets) {
  double sum = 0.0;
  for (std::size_t q = 0; q < lists.size(); ++q) {
    for (std::size_t p = 0; p < lists[q].size(); ++p) {
      if (lists[q][p].item == targets[q]) {
        sum += 1.0 / std::log2(static_cast<double>(p) + 2.0);
        break;
      }
    }
  }
  return lists.empty() ? 0.0 : sum / static_cast<double>(lists.size());
}

int Run(int argc, char** argv) {
  const std::size_t threads = bench::ApplyThreadsFlag(argc, argv);
  const std::size_t num_items =
      core::EnvSize("WHITENREC_COMPRESS_ITEMS", 200000);
  const std::size_t num_queries =
      core::EnvSize("WHITENREC_COMPRESS_QUERIES", 256);
  constexpr std::size_t kDim = 64;
  constexpr std::size_t kTopK = 10;

  std::printf("[compress] catalog=%zu queries=%zu dim=%zu k=%zu threads=%zu\n",
              num_items, num_queries, kDim, kTopK, threads);

  // Synthetic anisotropic catalog -> full-rank PCA whitening. PCA (not ZCA)
  // so the whitened axes are the eigenbasis and rank truncation is a column
  // prefix; eigenvalues sort descending, so the prefix keeps the directions
  // that carried the most catalog variance.
  data::ItemFeatureConfig feature_config;
  feature_config.num_items = num_items;
  feature_config.embed_dim = kDim;
  feature_config.latent_dim = kDim;
  feature_config.num_categories = 256;
  feature_config.category_spread = 4.0;
  feature_config.seed = 20240807;
  Matrix features = data::GenerateItemFeatures(feature_config);

  Result<FittedWhitening> fitted =
      FitWhitening(features, WhiteningKind::kPca, 1e-3);
  if (!fitted.ok()) {
    std::fprintf(stderr, "whitening fit failed: %s\n",
                 fitted.status().message().c_str());
    return 1;
  }
  Matrix whitened = ApplyWhitening(fitted.value(), features);
  features = Matrix();  // release the raw catalog

  // Perturbed in-catalog queries: the source row is each query's known
  // relevant item, like a session whose next item is near its history.
  linalg::Rng rng(99);
  Matrix queries(num_queries, kDim);
  std::vector<std::size_t> targets(num_queries);
  for (std::size_t qi = 0; qi < num_queries; ++qi) {
    targets[qi] = rng.UniformInt(num_items);
    double* q = queries.RowPtr(qi);
    const double* x = whitened.RowPtr(targets[qi]);
    for (std::size_t c = 0; c < kDim; ++c) {
      q[c] = x[c] + 0.25 * rng.Gaussian();
    }
  }

  bench::CompressionBenchResult result;
  result.top_k = kTopK;
  result.dim = kDim;
  result.queries = num_queries;
  result.catalog_items = num_items;
  result.baseline_bytes = num_items * kDim * sizeof(double);

  const linalg::ItemQuantKind ambient = linalg::CurrentItemQuantKind();
  std::vector<std::vector<linalg::ScoredItem>> reference_lists;
  for (std::size_t rank : {kDim, kDim / 2, kDim / 4}) {
    const Matrix items =
        rank == kDim ? Matrix(whitened) : ColumnPrefix(whitened, rank);
    const Matrix q = rank == kDim ? Matrix(queries) : ColumnPrefix(queries, rank);
    for (linalg::ItemQuantKind kind :
         {linalg::ItemQuantKind::kFp32, linalg::ItemQuantKind::kInt8,
          linalg::ItemQuantKind::kBf16}) {
      linalg::SetItemQuantKind(kind);
      std::unique_ptr<linalg::Scorer> scorer = linalg::MakeExactScorer();
      scorer->Rebuild(items);
      std::vector<std::vector<linalg::ScoredItem>> lists;
      const double seconds = bench::TimedTopK(scorer.get(), q, kTopK, &lists);

      bench::CompressionCell cell;
      cell.rank = rank;
      cell.quant = kind;
      if (kind == linalg::ItemQuantKind::kFp32) {
        cell.table_bytes = num_items * rank * sizeof(double);
      } else {
        linalg::QuantizedItemTable packed;
        packed.Pack(items, kind);
        cell.table_bytes = packed.PackedBytes();
      }
      cell.compression_ratio = static_cast<double>(result.baseline_bytes) /
                               static_cast<double>(cell.table_bytes);
      cell.scoring_qps =
          seconds > 0.0 ? static_cast<double>(num_queries) / seconds : 0.0;
      cell.ndcg_at_k = MeanNdcg(lists, targets);
      if (reference_lists.empty()) {
        // First cell is fp32 full rank: the reference for everything else.
        reference_lists = lists;
        result.baseline_ndcg = cell.ndcg_at_k;
      }
      double recall_sum = 0.0;
      for (std::size_t r = 0; r < lists.size(); ++r) {
        recall_sum += eval::RecallVsReference(lists[r], reference_lists[r]);
      }
      cell.recall_vs_reference =
          lists.empty() ? 0.0 : recall_sum / static_cast<double>(lists.size());
      cell.ndcg_loss_frac =
          result.baseline_ndcg > 0.0
              ? (result.baseline_ndcg - cell.ndcg_at_k) / result.baseline_ndcg
              : 0.0;
      std::printf(
          "[compress] rank=%2zu quant=%s bytes=%10zu ratio=%5.2fx "
          "qps=%9.1f ndcg@%zu=%.4f recall=%.4f loss=%+.4f\n",
          cell.rank, linalg::ItemQuantKindName(cell.quant), cell.table_bytes,
          cell.compression_ratio, cell.scoring_qps, kTopK, cell.ndcg_at_k,
          cell.recall_vs_reference, cell.ndcg_loss_frac);
      result.cells.push_back(cell);
    }
  }
  linalg::SetItemQuantKind(ambient);

  // Acceptance summary: the best compression among cells within the NDCG
  // budget (CheckCompressionBench independently enforces the >= 4x / <= 1%
  // floor).
  double best_ratio = 0.0;
  const bench::CompressionCell* best = nullptr;
  for (const bench::CompressionCell& cell : result.cells) {
    if (cell.ndcg_loss_frac <= 0.01 && cell.compression_ratio > best_ratio) {
      best_ratio = cell.compression_ratio;
      best = &cell;
    }
  }
  if (best != nullptr) {
    std::printf(
        "[compress] acceptance: rank=%zu quant=%s -> %.2fx smaller at "
        "%.2f%% NDCG@%zu loss\n",
        best->rank, linalg::ItemQuantKindName(best->quant),
        best->compression_ratio,
        100.0 * best->ndcg_loss_frac, kTopK);
  } else {
    std::printf("[compress] acceptance: no cell within the 1%% NDCG budget\n");
  }

  Status s = bench::WriteArtifact(bench::OutPath("BENCH_compression.json"),
                                  bench::CompressionBenchJson(result));
  if (s.ok()) s = bench::CheckCompressionBench(result);
  return bench::ExitCode("BENCH_compression.json", s);
}

}  // namespace
}  // namespace whitenrec

int main(int argc, char** argv) { return whitenrec::Run(argc, argv); }
