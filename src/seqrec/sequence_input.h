#ifndef WHITENREC_SEQREC_SEQUENCE_INPUT_H_
#define WHITENREC_SEQREC_SEQUENCE_INPUT_H_

#include <string>
#include <vector>

#include "data/batcher.h"
#include "linalg/matrix.h"
#include "linalg/rng.h"
#include "nn/layers.h"
#include "nn/transformer.h"

namespace whitenrec {
namespace seqrec {

// The input step joining an item encoder f_theta1 to a Transformer sequence
// encoder f_theta2 (paper Fig. 1): position t of a sequence is V[item] + P[t]
// with P a learned (max_len, d) table, a padded position (input_mask 0) is
// zeroed, and input dropout follows. SASRec, both FDSA streams and BERT4Rec
// share it; BERT4Rec passes its [mask] vector as one extra row of V. The two
// eval builders are const (no cache, no random draw), and every row they
// build is bitwise the matching row of Forward(batch, v, false).
class SequenceInput {
 public:
  // Draws P, named `name` + ".table", from `rng`; dropout draws from `rng`
  // only in training forwards.
  SequenceInput(std::size_t max_len, std::size_t dim, double dropout,
                linalg::Rng* rng, std::string name);

  // Training forward: (batch_size * seq_len, d) rows over the whole padded
  // batch, with dropout masks drawn when `train`. Caches the batch's mask
  // and item ids for Backward.
  linalg::Matrix Forward(const data::Batch& batch, const linalg::Matrix& v,
                         bool train);

  // Mirror of the last Forward: dropout backward, padded rows zeroed, the
  // position-table gradient accumulated, and each row's gradient added into
  // row items[r] of *dv (already shaped like v).
  void Backward(const linalg::Matrix& dx, linalg::Matrix* dv);

  // Eval input of right-padded batches: each sequence's prefix
  // [0, last_position] packed end to end into *x (resized), sequence b at
  // rows [(*starts)[b], (*starts)[b + 1]).
  void PackPrefixesInto(const data::Batch& batch, const linalg::Matrix& v,
                        std::vector<std::size_t>* starts,
                        linalg::Matrix* x) const;

  // Eval input of one unpadded position: *x becomes the (1, d) row of
  // `item` at position t.
  void StepRowInto(const linalg::Matrix& v, std::size_t item, std::size_t t,
                   linalg::Matrix* x) const;

  void CollectParameters(std::vector<nn::Parameter*>* out);

 private:
  nn::Embedding positions_;
  nn::Dropout dropout_;

  // The last training forward's mask and item ids, for Backward.
  std::vector<double> cached_mask_;
  std::vector<std::size_t> cached_items_;
};

// The last-position eval forward of a causal `encoder` fed by `input`:
// packs each prefix (PackPrefixesInto, into the thread's kWsEvalInput slot)
// and runs TransformerEncoder::ForwardLastRowsInto, so *users gets one row
// per sequence, bitwise its last valid row of the training forward in eval
// mode. Const and cache-free.
void ForwardLastPositions(const SequenceInput& input,
                          const nn::TransformerEncoder& encoder,
                          const data::Batch& batch, const linalg::Matrix& v,
                          linalg::Matrix* users);

}  // namespace seqrec
}  // namespace whitenrec

#endif  // WHITENREC_SEQREC_SEQUENCE_INPUT_H_
