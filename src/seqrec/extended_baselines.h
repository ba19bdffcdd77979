#ifndef WHITENREC_SEQREC_EXTENDED_BASELINES_H_
#define WHITENREC_SEQREC_EXTENDED_BASELINES_H_

#include <memory>

#include "data/dataset.h"
#include "seqrec/trainer.h"

namespace whitenrec {
namespace seqrec {

// Extension beyond the paper's compared set: the two sequence-encoder
// families its related-work section anchors on — RNNs (GRU4Rec) and
// bidirectional Transformers (BERT4Rec). Both use trainable ID embeddings,
// so they slot into the same full-ranking evaluation as SASRec^ID and let
// the harness ask "does whitened text beat *any* ID-based sequence encoder,
// not just SASRec?" (bench_ext_related_models).

// GRU4Rec: ID embeddings -> GRU -> inner-product prediction, trained with
// the same all-position full-softmax cross-entropy as the SASRec backbone.
std::unique_ptr<TrainableRecommender> MakeGru4Rec(const data::Dataset& dataset,
                                                  const SasRecConfig& config);

// BERT4Rec: ID embeddings -> bidirectional Transformer trained with a
// masked-item (cloze) objective; inference appends a [mask] token after the
// context and ranks the catalog at that position.
std::unique_ptr<TrainableRecommender> MakeBert4Rec(
    const data::Dataset& dataset, const SasRecConfig& config);

}  // namespace seqrec
}  // namespace whitenrec

#endif  // WHITENREC_SEQREC_EXTENDED_BASELINES_H_
