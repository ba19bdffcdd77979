#include "bench/ann_report.h"

#include <utility>

#include "core/json.h"

namespace whitenrec {
namespace bench {

std::string AnnBenchJson(const AnnBenchResult& result) {
  using core::Json;
  Json sweep = Json::Arr();
  for (const AnnCatalogSweep& entry : result.sweep) {
    Json points = Json::Arr();
    for (const AnnProbePoint& p : entry.points) {
      points.Push(Json::Obj()
                      .Set("nprobe", Json::Uint(p.nprobe))
                      .Set("recall_at_k", Json::Num(p.recall_at_k))
                      .Set("ivf_qps", Json::Num(p.ivf_qps))
                      .Set("speedup_vs_exact", Json::Num(p.speedup_vs_exact))
                      .Set("mean_candidates", Json::Num(p.mean_candidates)));
    }
    sweep.Push(Json::Obj()
                   .Set("catalog_items", Json::Uint(entry.catalog_items))
                   .Set("clusters", Json::Uint(entry.clusters))
                   .Set("build_seconds", Json::Num(entry.build_seconds))
                   .Set("exact_qps", Json::Num(entry.exact_qps))
                   .Set("points", std::move(points)));
  }
  return Json::Obj()
             .Set("bench", Json::Str("ann"))
             .Set("top_k", Json::Uint(result.top_k))
             .Set("dim", Json::Uint(result.dim))
             .Set("queries", Json::Uint(result.queries))
             .Set("sweep", std::move(sweep))
             .Dump() +
         "\n";
}

Status CheckAnnBench(const AnnBenchResult& result) {
  if (result.sweep.empty()) {
    return Status::InvalidArgument("ann sweep must be non-empty");
  }
  for (const AnnCatalogSweep& entry : result.sweep) {
    if (entry.points.empty()) {
      return Status::InvalidArgument(
          "each sweep entry needs a non-empty points list");
    }
    std::size_t prev_nprobe = 0;
    double prev_recall = 0.0;
    for (const AnnProbePoint& p : entry.points) {
      if (!(p.recall_at_k >= 0.0 && p.recall_at_k <= 1.0)) {
        return Status::InvalidArgument("recall_at_k must be in [0, 1]");
      }
      if (p.nprobe <= prev_nprobe) {
        return Status::InvalidArgument(
            "nprobe must be strictly increasing within a sweep entry");
      }
      // Recall-vs-exact is provably monotone in nprobe (nested candidate
      // sets, see retrieval/ivf_index.h); a dip means a bug, not noise.
      if (p.recall_at_k < prev_recall) {
        return Status::InvalidArgument(
            "recall_at_k must be non-decreasing in nprobe");
      }
      prev_nprobe = p.nprobe;
      prev_recall = p.recall_at_k;
    }
  }
  return Status::OK();
}

}  // namespace bench
}  // namespace whitenrec
