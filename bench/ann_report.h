#ifndef WHITENREC_BENCH_ANN_REPORT_H_
#define WHITENREC_BENCH_ANN_REPORT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/status.h"

namespace whitenrec {
namespace bench {

// Result schema for bench_ann (out/BENCH_ann.json): an outer sweep over
// catalog sizes, each with one deterministic index build, an exact-scoring
// baseline, and an inner sweep over nprobe. Recall is measured against the
// exact top-K under the canonical total order (eval::RecallVsReference), so
// CheckAnnBench can require it to be monotone in nprobe — the index
// guarantees it (retrieval/ivf_index.h).
struct AnnProbePoint {
  std::size_t nprobe = 0;
  double recall_at_k = 0.0;      // mean over queries, in [0, 1]
  double ivf_qps = 0.0;
  double speedup_vs_exact = 0.0; // exact batch seconds / ivf batch seconds
  double mean_candidates = 0.0;  // gathered candidates per query
};

struct AnnCatalogSweep {
  std::size_t catalog_items = 0;
  std::size_t clusters = 0;
  double build_seconds = 0.0;
  double exact_qps = 0.0;
  std::vector<AnnProbePoint> points;  // ascending nprobe
};

struct AnnBenchResult {
  std::size_t top_k = 0;
  std::size_t dim = 0;
  std::size_t queries = 0;
  std::vector<AnnCatalogSweep> sweep;
};

// Renders the result as the out/BENCH_ann.json document: the schema's one
// definition.
std::string AnnBenchJson(const AnnBenchResult& result);

// The rules a sweep must meet before its report is trusted: a non-empty
// sweep, each entry with non-empty points, recall in [0, 1], and strictly
// increasing nprobe with non-decreasing recall per entry.
Status CheckAnnBench(const AnnBenchResult& result);

}  // namespace bench
}  // namespace whitenrec

#endif  // WHITENREC_BENCH_ANN_REPORT_H_
