#include "retrieval/scorer.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/parallel.h"
#include "linalg/quant.h"
#include "retrieval/ivf_index.h"

namespace whitenrec {
namespace retrieval {
namespace {

using linalg::Matrix;

// Shared probe + rerank pass over a built family index. Rows are independent
// pure functions of the installed index, so the per-row ParallelFor cannot
// change results. Used by IvfScorer and by every SharedIvfIndex view.
void IvfTopKBatch(const SharedIvfIndex& family, std::size_t nprobe,
                  const Matrix& users,
                  const std::vector<std::vector<std::size_t>>& exclusions,
                  std::vector<linalg::TopKSelector>* selectors) {
  WR_CHECK(family.items() != nullptr);
  WR_CHECK_EQ(selectors->size(), users.rows());
  WR_CHECK(exclusions.empty() || exclusions.size() == users.rows());
  static const std::vector<std::size_t> kNoExclusions;
  core::ParallelFor(0, users.rows(), 1, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      const std::vector<std::size_t>& excl =
          exclusions.empty() ? kNoExclusions : exclusions[r];
      if (family.quant().empty()) {
        family.index().Search(users, r, *family.items(), nprobe, excl,
                              &(*selectors)[r]);
      } else {
        family.index().Search(users, r, family.quant(), nprobe, excl,
                              &(*selectors)[r]);
      }
    }
  });
}

// Sublinear IVF scoring: rebuilds the deterministic index on Rebuild, then
// probes + exact-reranks per query row.
class IvfScorer final : public Scorer {
 public:
  explicit IvfScorer(const ScorerConfig& config)
      : config_(config), family_(config) {}

  void Rebuild(const Matrix& items) override {
    family_.Rebuild(items);
    num_items_ = items.rows();
  }

  void TopKBatch(
      const Matrix& users,
      const std::vector<std::vector<std::size_t>>& exclusions,
      std::vector<linalg::TopKSelector>* selectors) const override {
    IvfTopKBatch(family_, config_.nprobe, users, exclusions, selectors);
  }

  const char* name() const override { return "ivf"; }

 private:
  ScorerConfig config_;
  SharedIvfIndex family_;
};

// A ladder rung's borrowed view: probes the family's index at its own
// nprobe. Rebuild never re-clusters (the family owner already did); it only
// verifies the view was pointed at the very table the family indexed.
class SharedIvfViewScorer final : public Scorer {
 public:
  SharedIvfViewScorer(const SharedIvfIndex* family, std::size_t nprobe)
      : family_(family), nprobe_(nprobe) {
    WR_CHECK(nprobe >= 1);
    num_items_ = family->num_items();
  }

  void Rebuild(const Matrix& items) override {
    WR_CHECK(family_->items() == &items);
    num_items_ = items.rows();
  }

  void TopKBatch(
      const Matrix& users,
      const std::vector<std::vector<std::size_t>>& exclusions,
      std::vector<linalg::TopKSelector>* selectors) const override {
    IvfTopKBatch(*family_, nprobe_, users, exclusions, selectors);
  }

  const char* name() const override { return "ivf-view"; }

 private:
  const SharedIvfIndex* family_;  // borrowed
  std::size_t nprobe_;
};

// Popularity fallback (see scorer.h): a static ranking, no embeddings.
class PopularityScorer final : public Scorer {
 public:
  explicit PopularityScorer(std::vector<std::size_t> popularity)
      : popularity_(std::move(popularity)) {}

  void Rebuild(const Matrix& items) override {
    num_items_ = items.rows();
    ranked_.clear();
    ranked_.reserve(items.rows());
    for (std::size_t i = 0; i < items.rows(); ++i) ranked_.push_back(i);
    std::sort(ranked_.begin(), ranked_.end(),
              [this](std::size_t a, std::size_t b) {
                const std::size_t ca = CountOf(a);
                const std::size_t cb = CountOf(b);
                if (ca != cb) return ca > cb;
                return a < b;
              });
  }

  void TopKBatch(
      const Matrix& users,
      const std::vector<std::vector<std::size_t>>& exclusions,
      std::vector<linalg::TopKSelector>* selectors) const override {
    WR_CHECK_EQ(selectors->size(), users.rows());
    WR_CHECK(exclusions.empty() || exclusions.size() == users.rows());
    static const std::vector<std::size_t> kNoExclusions;
    core::ParallelFor(0, users.rows(), 1, [&](std::size_t r0, std::size_t r1) {
      for (std::size_t r = r0; r < r1; ++r) {
        const std::vector<std::size_t>& excl =
            exclusions.empty() ? kNoExclusions : exclusions[r];
        linalg::TopKSelector& selector = (*selectors)[r];
        // ranked_ is already in the canonical (score desc, id asc) order for
        // score == count, so the first k() non-excluded entries ARE the
        // selection; the selector just collects them.
        for (std::size_t i = 0;
             i < ranked_.size() && selector.size() < selector.k(); ++i) {
          const std::size_t item = ranked_[i];
          if (std::binary_search(excl.begin(), excl.end(), item)) continue;
          selector.Push(item, static_cast<double>(CountOf(item)));
        }
      }
    });
  }

  const char* name() const override { return "popularity"; }

 private:
  std::size_t CountOf(std::size_t item) const {
    return item < popularity_.size() ? popularity_[item] : 0;
  }

  std::vector<std::size_t> popularity_;
  std::vector<std::size_t> ranked_;  // rebuilt ranking, catalog-sized index
};

}  // namespace

void SharedIvfIndex::Rebuild(const Matrix& items) {
  items_ = &items;
  IvfBuildConfig build;
  build.clusters = config_.clusters;
  build.iterations = config_.iterations;
  build.max_train_rows = config_.max_train_rows;
  build.seed = config_.seed;
  // Clustering always runs on the full-precision table (available at
  // rebuild time anyway); only the rerank reads the packed copy, so
  // compression changes candidate SCORES but never the partition.
  index_ = IvfIndex::Build(items, build);
  const linalg::ItemQuantKind kind = linalg::CurrentItemQuantKind();
  if (kind == linalg::ItemQuantKind::kFp32) {
    quant_.Clear();
  } else {
    quant_.Pack(items, kind);
  }
}

std::unique_ptr<Scorer> SharedIvfIndex::MakeView(std::size_t nprobe) const {
  return std::make_unique<SharedIvfViewScorer>(this, nprobe);
}

std::unique_ptr<Scorer> MakePopularityScorer(
    std::vector<std::size_t> popularity) {
  return std::make_unique<PopularityScorer>(std::move(popularity));
}

const char* ScorerKindName(ScorerKind kind) {
  return kind == ScorerKind::kExact ? "exact" : "ivf";
}

std::unique_ptr<Scorer> MakeScorer(const ScorerConfig& config) {
  if (config.kind == ScorerKind::kIvf) {
    WR_CHECK_MSG(config.nprobe >= 1, "IVF scorer needs nprobe >= 1");
    return std::make_unique<IvfScorer>(config);
  }
  return linalg::MakeExactScorer();
}

}  // namespace retrieval
}  // namespace whitenrec
