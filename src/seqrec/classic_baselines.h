#ifndef WHITENREC_SEQREC_CLASSIC_BASELINES_H_
#define WHITENREC_SEQREC_CLASSIC_BASELINES_H_

#include <memory>

#include "data/dataset.h"
#include "seqrec/trainer.h"

namespace whitenrec {
namespace seqrec {

// The two remaining sequence-model families from the paper's related-work
// taxonomy (Sec. II-A): Markov-chain factorization (FPMC) and convolutional
// sequence models (Caser). Library extensions beyond the paper's compared
// set; they complete the encoder-family sweep of bench_ext_related_models.

// FPMC (Rendle et al.): score(u, prev, i) = <v_u, v_i^(UI)> +
// <v_prev^(IL), v_i^(LI)>, trained with BPR over sampled negatives. The
// sequence signal is a first-order Markov transition from the most recent
// item. It scores as one inner product over the two factor pairs placed
// side by side.
std::unique_ptr<TrainableRecommender> MakeFpmc(const data::Dataset& dataset,
                                               std::size_t dim);

// Caser (Tang & Wang): the last L item embeddings form an L x d "image";
// horizontal convolutions (heights 2..4, max-pooled over time) capture
// union-level patterns, a vertical convolution captures weighted point-wise
// aggregation. Features feed a fully connected layer whose output scores
// the catalog against a separate output item embedding. Trained with
// full-softmax cross-entropy on the next item of each window.
std::unique_ptr<TrainableRecommender> MakeCaser(const data::Dataset& dataset,
                                                const SasRecConfig& config);

}  // namespace seqrec
}  // namespace whitenrec

#endif  // WHITENREC_SEQREC_CLASSIC_BASELINES_H_
