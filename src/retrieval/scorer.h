#ifndef WHITENREC_RETRIEVAL_SCORER_H_
#define WHITENREC_RETRIEVAL_SCORER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "linalg/scorer.h"
#include "retrieval/ivf_index.h"

namespace whitenrec {
namespace retrieval {

// Backend selection for the linalg::Scorer seam: kExact is the fused
// streaming GEMM (linalg/scorer.h, bitwise the pre-Scorer behavior), kIvf
// the sublinear IVF index (ivf_index.h). The abstract interface lives in
// linalg so lower layers (seqrec eval) can consume an injected backend
// without including this module; this header owns the concrete backends and
// the config-driven choice between them.
enum class ScorerKind { kExact, kIvf };

const char* ScorerKindName(ScorerKind kind);

// Scorer is the linalg seam; the alias keeps backend-agnostic call sites
// (serving, benches) readable at this layer.
using Scorer = linalg::Scorer;

// Backend choice and IVF index sizing; Defaults() gives the compiled-in
// values.
struct ScorerConfig {
  ScorerKind kind = ScorerKind::kExact;
  std::size_t clusters = 0;  // k-means clusters; 0 = auto ~sqrt(num_items)
  std::size_t nprobe = 8;    // probed clusters per query; >= 1 for kIvf
  std::size_t iterations = 8;
  std::size_t max_train_rows = 65536;
  std::uint64_t seed = 0x5eedc1u;

  static ScorerConfig Defaults() { return ScorerConfig(); }
};

// The backend `config` selects. A kIvf config with nprobe == 0 is a
// programming error (WR_CHECK).
std::unique_ptr<Scorer> MakeScorer(const ScorerConfig& config);

// One IVF index shared by several Scorer views at different nprobe values —
// the degradation ladder's IVF rungs (DESIGN.md §13). The expensive part of
// an IVF scorer is the deterministic k-means build; ladder rungs differ only
// in how many clusters they probe, so the service clusters once per refit
// via Rebuild() and hands each rung a cheap MakeView(nprobe).
//
// Lifecycle mirrors linalg::Scorer: Rebuild(items) borrows the table (it
// must stay alive and unchanged until the next Rebuild) and re-clusters;
// views borrow the family and must not outlive it. Calling Rebuild on a view
// does not re-cluster — it checks the family has already indexed that same
// table and refreshes the view's num_items().
class SharedIvfIndex {
 public:
  explicit SharedIvfIndex(const ScorerConfig& config) : config_(config) {}

  void Rebuild(const linalg::Matrix& items);
  std::unique_ptr<Scorer> MakeView(std::size_t nprobe) const;

  std::size_t clusters() const { return index_.clusters(); }
  std::size_t num_items() const { return index_.num_items(); }
  const linalg::Matrix* items() const { return items_; }
  const IvfIndex& index() const { return index_; }
  const linalg::QuantizedItemTable& quant() const { return quant_; }

 private:
  ScorerConfig config_;
  const linalg::Matrix* items_ = nullptr;  // borrowed
  IvfIndex index_;
  linalg::QuantizedItemTable quant_;  // packed at Rebuild when quant is on
};

// Popularity-prior fallback scorer: the ladder's bottom rung. Ranks the
// whole catalog once per Rebuild by (interaction count desc, item id asc) —
// the same deterministic tie-break as eval::PopularityHeadSet — and answers
// every query with the most popular non-excluded items, scored by their
// counts. User rows are ignored: this rung costs O(K + |exclusions|) per
// request and needs no embeddings, which is exactly why it can absorb any
// overload. Items beyond popularity.size() (ingested after the counts were
// taken) rank as count 0.
std::unique_ptr<Scorer> MakePopularityScorer(
    std::vector<std::size_t> popularity);

}  // namespace retrieval
}  // namespace whitenrec

#endif  // WHITENREC_RETRIEVAL_SCORER_H_
