#ifndef WHITENREC_LINALG_SCORER_H_
#define WHITENREC_LINALG_SCORER_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/topk.h"

namespace whitenrec {
namespace linalg {

// Model-agnostic batched top-K scoring: the serving core and the eval
// recommendation path both reduce to "score these user rows against the item
// table and keep each row's top-K under the canonical total order". Scorer
// is that seam. The interface lives here in linalg — below every consumer —
// so seqrec eval can accept any backend by pointer without depending on the
// module that implements it: the exact backend (MakeExactScorer, this file)
// is the fused streaming GEMM, and retrieval/scorer.h layers the sublinear
// IVF backend plus the ScorerConfig selection on top.
//
// Lifecycle: Rebuild(items) installs (and for indexed backends, indexes) the
// table; TopKBatch scores against the installed table. `items` is borrowed —
// it must outlive the scorer and stay unchanged until the next Rebuild (the
// serving core re-calls Rebuild on every ingest refit, mirroring the
// whitening refit cadence).
//
// Determinism: TopKBatch fills selectors whose selected lists are a pure
// function of (users, installed table, exclusions) — independent of thread
// count, batch slicing, and for IVF also of probe traversal order (strict
// total order everywhere, see retrieval/ivf_index.h).
class Scorer {
 public:
  virtual ~Scorer() = default;

  // Installs the (num_items, d) item table, rebuilding any index.
  virtual void Rebuild(const Matrix& items) = 0;

  // Scores users row r against the installed table into (*selectors)[r]
  // (pre-constructed with the caller's K; this call does not Reset them).
  // exclusions[r] lists item ids to skip, sorted ascending (empty = none);
  // an empty outer vector means no row excludes anything.
  virtual void TopKBatch(
      const Matrix& users,
      const std::vector<std::vector<std::size_t>>& exclusions,
      std::vector<TopKSelector>* selectors) const = 0;

  // Backend name for logs and bench artifacts ("exact", "ivf", ...).
  virtual const char* name() const = 0;

  std::size_t num_items() const { return num_items_; }

 protected:
  std::size_t num_items_ = 0;
};

// Exact fused scoring: the streamed GEMM + per-row bounded selector pass,
// bitwise identical to materializing A * B^T and partial-sorting each row
// under the strict score-desc/id-asc order. Rebuild packs a copy of the
// table (linalg::PackedItemTable, or the quantized table), so TopKBatch
// never packs per call.
std::unique_ptr<Scorer> MakeExactScorer();

}  // namespace linalg
}  // namespace whitenrec

#endif  // WHITENREC_LINALG_SCORER_H_
