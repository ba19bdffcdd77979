#ifndef WHITENREC_SEQREC_BASELINES_H_
#define WHITENREC_SEQREC_BASELINES_H_

#include <memory>
#include <string>
#include <vector>

#include "whitening/whiten_encoder.h"
#include "data/dataset.h"
#include "seqrec/trainer.h"

namespace whitenrec {
namespace seqrec {

// Factory helpers producing every model compared in the paper (Tables I,
// III, IV, VIII). All SASRec-backbone variants share the same sequence
// encoder and training loop; they differ in the item encoder and, for
// CL4SRec / S3-Rec, in auxiliary objectives. See DESIGN.md for the
// documented simplifications relative to the original baselines.

// SASRec^ID: trainable ID embeddings.
std::unique_ptr<SasRecRecommender> MakeSasRecId(const data::Dataset& dataset,
                                                const SasRecConfig& config);

// SASRec^T: frozen raw text features -> MLP projection head.
std::unique_ptr<SasRecRecommender> MakeSasRecText(const data::Dataset& dataset,
                                                  const SasRecConfig& config);

// SASRec^{T+ID}: element-wise sum of both.
std::unique_ptr<SasRecRecommender> MakeSasRecTextId(
    const data::Dataset& dataset, const SasRecConfig& config);

// WhitenRec / WhitenRec+ (optionally + ID embeddings, paper Table VIII).
std::unique_ptr<SasRecRecommender> MakeWhitenRec(
    const data::Dataset& dataset, const SasRecConfig& config,
    const WhitenRecConfig& wconfig, bool with_id = false);
std::unique_ptr<SasRecRecommender> MakeWhitenRecPlus(
    const data::Dataset& dataset, const SasRecConfig& config,
    const WhitenRecConfig& wconfig, bool with_id = false);

// UniSRec (inductive: text only; transductive: text + ID): MoE adaptor of
// parametric-whitening experts, pre-training stage removed as in the paper.
std::unique_ptr<SasRecRecommender> MakeUniSRec(const data::Dataset& dataset,
                                               const SasRecConfig& config,
                                               bool with_id);

// CL4SRec: SASRec^ID plus contrastive learning over augmented sequence views
// (crop / mask / reorder). Mask is realized as item deletion (no [mask]
// token in this vocabulary-free setting) and the contrastive gradient is
// one-sided (stop-gradient on the second view) so each layer keeps a single
// forward/backward pair per step.
std::unique_ptr<SasRecRecommender> MakeCl4SRec(const data::Dataset& dataset,
                                               const SasRecConfig& config,
                                               double aug_weight = 0.1,
                                               double temperature = 0.5);

// S3-Rec (T+ID): the mutual-information pre-training objectives are folded
// into a joint item-attribute (category) prediction task on the item
// embedding matrix.
std::unique_ptr<SasRecRecommender> MakeS3Rec(const data::Dataset& dataset,
                                             const SasRecConfig& config,
                                             double attribute_weight = 0.2);

// VQRec: text embeddings are product-quantized into discrete codes (M
// sub-spaces x K centroids, Lloyd k-means) and items are represented by the
// sum of trainable code embeddings. Pre-training removed as in the paper.
std::unique_ptr<SasRecRecommender> MakeVqRec(const data::Dataset& dataset,
                                             const SasRecConfig& config,
                                             std::size_t num_subspaces = 8,
                                             std::size_t num_centroids = 16);

// FDSA (T+ID): separate self-attention streams for items and text features,
// fused at the sequence level: two Transformer stacks and a linear fusion
// layer, scored against the sum of the ID and text item tables.
std::unique_ptr<TrainableRecommender> MakeFdsa(const data::Dataset& dataset,
                                               const SasRecConfig& config);

}  // namespace seqrec
}  // namespace whitenrec

#endif  // WHITENREC_SEQREC_BASELINES_H_
