#ifndef WHITENREC_SEQREC_GENERAL_REC_H_
#define WHITENREC_SEQREC_GENERAL_REC_H_

#include <memory>

#include "data/dataset.h"
#include "seqrec/trainer.h"

namespace whitenrec {
namespace seqrec {

// General (non-sequential) recommenders with text features — the paper's
// GRCN and BM3 baselines (Table III). Both share a matrix-factorization
// backbone where an item is the sum of a trainable ID embedding and a
// projected frozen text embedding, and score users against the catalog by
// inner product. They ignore sequence order, which is exactly why they trail
// sequential models on the Amazon profiles.
//
// Documented simplifications (DESIGN.md): GRCN's graph refinement is a
// single propagation layer over the user-item graph with text-based edge
// confidences, lowest-confidence edges pruned, propagation detached from the
// gradient; BM3's bootstrap losses are realized as symmetric InfoNCE terms
// (user <-> positive item, and ID-view <-> text-view of the same item).
std::unique_ptr<TrainableRecommender> MakeGrcn(const data::Dataset& dataset,
                                               std::size_t dim,
                                               std::uint64_t seed = 11);
std::unique_ptr<TrainableRecommender> MakeBm3(const data::Dataset& dataset,
                                              std::size_t dim,
                                              std::uint64_t seed = 12);

}  // namespace seqrec
}  // namespace whitenrec

#endif  // WHITENREC_SEQREC_GENERAL_REC_H_
