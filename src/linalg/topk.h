#ifndef WHITENREC_LINALG_TOPK_H_
#define WHITENREC_LINALG_TOPK_H_

#include <cstddef>
#include <vector>

namespace whitenrec {
namespace linalg {

struct ScoredItem {
  double score = 0.0;
  std::size_t item = 0;
};

// Canonical ranking order for recommendations: higher score first, ties
// broken toward the smaller item id. Every top-K surface in the repo (the
// streaming selector below, the partial_sort reference, the recommendation
// APIs) uses exactly this comparator so selections are unique and the fused
// and materialized scoring paths produce identical lists.
inline bool RanksBefore(const ScoredItem& a, const ScoredItem& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.item < b.item;
}

// Streaming bounded top-K: a fixed-capacity min-heap of the best K
// candidates seen so far, fed item-by-item (or tile-by-tile) in ascending
// item order. Memory is O(K) regardless of catalog size, and because the
// comparator is a strict total order (score, then item id), the selected
// set — not just its scores — is independent of feed order. ±inf scores are
// ordinary values under the total order; NaN is a caller bug (scores come
// from GEMM panels that WR_CHECK_FINITE guards under debug checks).
//
// A selector is per-row state: not thread-safe, reusable via Reset().
class TopKSelector {
 public:
  explicit TopKSelector(std::size_t k);

  std::size_t k() const { return k_; }
  std::size_t size() const { return heap_.size(); }

  // Forgets all candidates; keeps capacity.
  void Reset();

  // Considers one candidate.
  void Push(std::size_t item, double score) {
    if (heap_.size() < k_) {
      heap_.push_back(ScoredItem{score, item});
      SiftUp(heap_.size() - 1);
    } else if (RanksBefore(ScoredItem{score, item}, heap_[0])) {
      heap_[0] = ScoredItem{score, item};
      SiftDown(0);
    }
  }

  // Considers a contiguous score tile: scores[c] belongs to item j0 + c.
  // Same selection as Push per element; once the heap is full, a score
  // strictly below the root's can never rank before it, so it is dropped
  // after one compare against a cached threshold.
  void PushTile(const double* scores, std::size_t j0, std::size_t jn) {
    std::size_t c = 0;
    for (; c < jn && heap_.size() < k_; ++c) Push(j0 + c, scores[c]);
    if (c == jn) return;
    double worst = heap_[0].score;
    for (; c < jn; ++c) {
      if (scores[c] < worst) continue;
      Push(j0 + c, scores[c]);
      worst = heap_[0].score;
    }
  }

  // The selected items in ranking order (score desc, item id asc).
  std::vector<ScoredItem> SortedDescending() const;

 private:
  // Min-heap on RanksBefore: the root is the WORST of the kept candidates,
  // i.e. the one every new candidate must beat.
  void SiftUp(std::size_t i);
  void SiftDown(std::size_t i);

  std::size_t k_;
  std::vector<ScoredItem> heap_;
};

// Reference selection via std::partial_sort over the full score row, same
// comparator. The streaming selector must match this exactly
// (tests/topk_test.cc).
std::vector<ScoredItem> SelectTopK(const double* scores, std::size_t n,
                                   std::size_t k);

}  // namespace linalg
}  // namespace whitenrec

#endif  // WHITENREC_LINALG_TOPK_H_
