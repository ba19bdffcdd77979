#include "linalg/scorer.h"

#include <algorithm>

#include "core/check.h"
#include "linalg/gemm.h"
#include "linalg/quant.h"

namespace whitenrec {
namespace linalg {
namespace {

// Exact fused scoring: the streamed GEMM + per-row bounded selector pass.
// Rebuild packs the table once — into the blocked kernel's strips for fp32,
// or into the CurrentItemQuantKind() representation — and TopKBatch streams
// over that pack: StreamPackedMatMulTransB or the dequantize-in-tile stream.
// Either producer feeds the same epilogue, so compression is invisible to
// every Scorer consumer, and the fp32 scores are bitwise those of
// MatMulTransB(users, items).
class ExactScorer final : public Scorer {
 public:
  void Rebuild(const Matrix& items) override {
    rebuilt_ = true;
    num_items_ = items.rows();
    kind_ = CurrentItemQuantKind();
    if (kind_ == ItemQuantKind::kFp32) {
      quant_.Clear();
      packed_.Pack(items);
    } else {
      packed_.Clear();
      quant_.Pack(items, kind_);
    }
  }

  void TopKBatch(
      const Matrix& users,
      const std::vector<std::vector<std::size_t>>& exclusions,
      std::vector<TopKSelector>* selectors) const override {
    WR_CHECK(rebuilt_);
    WR_CHECK_EQ(selectors->size(), users.rows());
    WR_CHECK(exclusions.empty() || exclusions.size() == users.rows());
    static const std::vector<std::size_t> kNoExclusions;
    // Items arrive in ascending id order, so one cursor per row walks the
    // sorted exclusions alongside them: a lower_bound at the tile start,
    // then plain runs of pushes between excluded ids.
    const ScoreRowsFn push =
        [&](std::size_t i0, std::size_t i1, std::size_t j0, std::size_t jn,
            const Matrix& panel) {
          const std::size_t j1 = j0 + jn;
          for (std::size_t r = i0; r < i1; ++r) {
            const double* prow = panel.RowPtr(r);
            const std::vector<std::size_t>& excl =
                exclusions.empty() ? kNoExclusions : exclusions[r];
            TopKSelector& sel = (*selectors)[r];
            auto next = std::lower_bound(excl.begin(), excl.end(), j0);
            std::size_t item = j0;
            while (item < j1) {
              const std::size_t stop =
                  next == excl.end() ? j1 : std::min(*next, j1);
              sel.PushTile(prow + (item - j0), item, stop - item);
              if (stop == j1) break;
              item = stop + 1;  // stop == *next: excluded
              while (next != excl.end() && *next < item) ++next;  // dups
            }
          }
        };
    if (kind_ == ItemQuantKind::kFp32) {
      StreamPackedMatMulTransB(users, packed_, push);
    } else {
      StreamQuantMatMulTransB(users, quant_, push);
    }
  }

  const char* name() const override { return "exact"; }

 private:
  bool rebuilt_ = false;
  ItemQuantKind kind_ = ItemQuantKind::kFp32;
  PackedItemTable packed_;    // fp32 pack, built at Rebuild
  QuantizedItemTable quant_;  // compressed pack, built at Rebuild
};

}  // namespace

std::unique_ptr<Scorer> MakeExactScorer() {
  return std::make_unique<ExactScorer>();
}

}  // namespace linalg
}  // namespace whitenrec
