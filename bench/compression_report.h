#ifndef WHITENREC_BENCH_COMPRESSION_REPORT_H_
#define WHITENREC_BENCH_COMPRESSION_REPORT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/status.h"
#include "linalg/quant.h"

namespace whitenrec {
namespace bench {

// Result schema for bench_compression (out/BENCH_compression.json): a grid
// of (whitening rank x item-table representation) cells, each measured
// against the fp32 full-rank reference — item-table bytes, scoring
// throughput, NDCG@K against the known target, and recall@K of the cell's
// top-K lists vs the reference lists. CheckCompressionBench enforces the
// acceptance floor: at least one cell must reach >= 4x memory reduction at
// <= 1% NDCG@K loss.
struct CompressionCell {
  std::size_t rank = 0;           // whitened dims kept (<= dim)
  linalg::ItemQuantKind quant = linalg::ItemQuantKind::kFp32;
  std::size_t table_bytes = 0;    // packed item-table footprint
  double compression_ratio = 0.0; // baseline_bytes / table_bytes
  double scoring_qps = 0.0;
  double ndcg_at_k = 0.0;         // mean over queries, in [0, 1]
  double recall_vs_reference = 0.0;
  double ndcg_loss_frac = 0.0;    // (baseline_ndcg - ndcg_at_k) / baseline
};

struct CompressionBenchResult {
  std::size_t top_k = 0;
  std::size_t dim = 0;
  std::size_t queries = 0;
  std::size_t catalog_items = 0;
  std::size_t baseline_bytes = 0; // catalog_items * dim * sizeof(double)
  double baseline_ndcg = 0.0;     // fp32 full-rank cell's NDCG@K
  std::vector<CompressionCell> cells;
};

// Renders the result as the out/BENCH_compression.json document: the
// schema's one definition.
std::string CompressionBenchJson(const CompressionBenchResult& result);

// The rules a grid must meet before its report is trusted: non-empty cells,
// each with rank in [1, dim], positive table bytes and ratio, NDCG@K and
// recall in [0, 1]; the fp32 full-rank reference cell present at ratio 1
// and zero loss; and the acceptance floor (some cell with
// compression_ratio >= 4 and ndcg_loss_frac <= 0.01).
Status CheckCompressionBench(const CompressionBenchResult& result);

}  // namespace bench
}  // namespace whitenrec

#endif  // WHITENREC_BENCH_COMPRESSION_REPORT_H_
