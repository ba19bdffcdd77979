#include "bench/compression_report.h"

#include <cmath>
#include <utility>

#include "core/json.h"

namespace whitenrec {
namespace bench {

std::string CompressionBenchJson(const CompressionBenchResult& result) {
  using core::Json;
  Json cells = Json::Arr();
  for (const CompressionCell& cell : result.cells) {
    cells.Push(
        Json::Obj()
            .Set("rank", Json::Uint(cell.rank))
            .Set("quant", Json::Str(linalg::ItemQuantKindName(cell.quant)))
            .Set("table_bytes", Json::Uint(cell.table_bytes))
            .Set("compression_ratio", Json::Num(cell.compression_ratio))
            .Set("scoring_qps", Json::Num(cell.scoring_qps))
            .Set("ndcg_at_k", Json::Num(cell.ndcg_at_k))
            .Set("recall_vs_reference", Json::Num(cell.recall_vs_reference))
            .Set("ndcg_loss_frac", Json::Num(cell.ndcg_loss_frac)));
  }
  return Json::Obj()
             .Set("bench", Json::Str("compression"))
             .Set("top_k", Json::Uint(result.top_k))
             .Set("dim", Json::Uint(result.dim))
             .Set("queries", Json::Uint(result.queries))
             .Set("catalog_items", Json::Uint(result.catalog_items))
             .Set("baseline_bytes", Json::Uint(result.baseline_bytes))
             .Set("baseline_ndcg", Json::Num(result.baseline_ndcg))
             .Set("cells", std::move(cells))
             .Dump() +
         "\n";
}

Status CheckCompressionBench(const CompressionBenchResult& result) {
  if (result.cells.empty()) {
    return Status::InvalidArgument("compression grid must be non-empty");
  }
  bool has_reference = false;
  bool meets_acceptance = false;
  for (const CompressionCell& cell : result.cells) {
    if (cell.rank < 1 || cell.rank > result.dim) {
      return Status::InvalidArgument("cell rank must be in [1, dim]");
    }
    if (cell.table_bytes == 0 || !(cell.compression_ratio > 0.0)) {
      return Status::InvalidArgument(
          "table_bytes and compression_ratio must be positive");
    }
    if (!(cell.ndcg_at_k >= 0.0 && cell.ndcg_at_k <= 1.0) ||
        !(cell.recall_vs_reference >= 0.0 &&
          cell.recall_vs_reference <= 1.0)) {
      return Status::InvalidArgument(
          "ndcg_at_k and recall_vs_reference must be in [0, 1]");
    }
    if (cell.quant == linalg::ItemQuantKind::kFp32 &&
        cell.rank == result.dim) {
      // The reference cell measures the uncompressed table against itself.
      if (!(std::fabs(cell.compression_ratio - 1.0) <= 1e-9) ||
          !(std::fabs(cell.ndcg_loss_frac) <= 1e-12)) {
        return Status::InvalidArgument(
            "the fp32 full-rank cell must have ratio 1 and zero loss");
      }
      has_reference = true;
    }
    if (cell.compression_ratio >= 4.0 && cell.ndcg_loss_frac <= 0.01) {
      meets_acceptance = true;
    }
  }
  if (!has_reference) {
    return Status::InvalidArgument(
        "cells must include the fp32 full-rank reference");
  }
  // The acceptance floor, enforced on the result itself so a regression in
  // either the truncation math or the quantizer fails the gate.
  if (!meets_acceptance) {
    return Status::InvalidArgument(
        "no cell reaches >= 4x memory reduction at <= 1% NDCG loss");
  }
  return Status::OK();
}

}  // namespace bench
}  // namespace whitenrec
