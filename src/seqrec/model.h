#ifndef WHITENREC_SEQREC_MODEL_H_
#define WHITENREC_SEQREC_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "whitening/item_encoder.h"
#include "data/batcher.h"
#include "linalg/rng.h"
#include "linalg/workspace.h"
#include "nn/optimizer.h"
#include "nn/transformer.h"
#include "seqrec/sequence_input.h"

namespace whitenrec {
namespace seqrec {

// Hyper-parameters of the SASRec backbone (paper Sec. V-A4: 2 self-attention
// blocks, 2 heads, 2 projection MLP layers; our sizes are scaled down for
// the 1-core reproduction).
struct SasRecConfig {
  std::size_t hidden_dim = 32;
  std::size_t num_blocks = 2;
  std::size_t num_heads = 2;
  std::size_t ffn_hidden = 64;
  double dropout = 0.2;
  std::size_t max_len = 12;
  std::uint64_t seed = 42;
};

// The general sequential-recommendation framework of paper Fig. 1: an item
// encoder f_theta1 (pluggable — ID, text, whitened text, ensembles), a
// Transformer sequence encoder f_theta2, and an inner-product prediction
// layer trained with full-softmax cross-entropy over the catalog.
//
// The granular Encode*/Loss*/Backward* methods are public so that baseline
// variants (CL4SRec, S3-Rec) can compose additional objectives around the
// same backbone; TrainStep() is the plain SASRec step. FDSA and BERT4Rec
// build their own encoders but share this model's input layer,
// SequenceInput.
class SasRecModel {
 public:
  SasRecModel(std::unique_ptr<ItemEncoder> encoder, const SasRecConfig& config);

  std::size_t num_items() const { return encoder_->num_items(); }
  const SasRecConfig& config() const { return config_; }
  ItemEncoder* encoder() { return encoder_.get(); }
  linalg::Rng* rng() { return &rng_; }

  std::vector<nn::Parameter*> Parameters();

  // --- Granular API ------------------------------------------------------
  // Item representations V (num_items, d).
  linalg::Matrix EncodeItems(bool train);
  // Hidden states H (batch*L, d) for a batch given V: the training forward,
  // which fills every layer's backward cache (and, with train, draws
  // dropout masks). With train=false it is the oracle the two eval forwards
  // below are tested against; the library ranks through them instead.
  linalg::Matrix EncodeSequences(const data::Batch& batch,
                                 const linalg::Matrix& v, bool train);
  // Full-softmax CE over all positions with a target; fills dH and adds the
  // logits' contribution into dV. Streams the logits tile by tile
  // (nn::StreamingSoftmaxCrossEntropy), so no (batch*L, num_items) matrix is
  // ever allocated.
  double SequenceLossAndGrad(const data::Batch& batch, const linalg::Matrix& h,
                             const linalg::Matrix& v, linalg::Matrix* dh,
                             linalg::Matrix* dv);
  // Backprop dH through the sequence encoder and input embeddings; adds the
  // gather contribution into dV.
  void BackwardSequences(const data::Batch& batch, const linalg::Matrix& dh,
                         linalg::Matrix* dv);
  // Backprop dV into the item encoder parameters.
  void BackwardItems(const linalg::Matrix& dv);

  // --- Convenience -------------------------------------------------------
  // One SASRec training step; returns the batch loss. Caller steps the
  // optimizer.
  double TrainStep(const data::Batch& batch);

  // --- Eval ---------------------------------------------------------------
  // Every eval entry point below runs a const, cache-free forward: it writes
  // no layer cache (a training step's forward/backward pair may straddle
  // it) and draws no random number. EncodeItems(false) likewise runs the
  // item encoder's cache-free eval.

  // The last-position eval forward (ForwardLastPositions): *users receives
  // one (1, hidden_dim) row per sequence, bitwise the row
  // GatherLastPositions(EncodeSequences(batch, v, false), batch) would give.
  // It relies on batches being right-padded: only each prefix
  // [0, last_position] runs through the blocks, and the last block computes
  // its query side (attention, FFN, final LayerNorm) for the last row alone.
  // Parallel over sequences, with every temporary in the thread's workspace.
  void EncodeLastPositions(const data::Batch& batch, const linalg::Matrix& v,
                           linalg::Matrix* users) const;

  // Scores (batch_size, num_items) for the last position of each sequence.
  // This materializes the full score matrix by contract; streaming
  // consumers use ScoreFactors instead.
  linalg::Matrix ScoreLastPositions(const data::Batch& batch);

  // The factored form of ScoreLastPositions: *users receives the last-
  // position representations (batch_size, d) and *items the item table
  // (num_items, d), so scores = users * items^T. Lets the streaming
  // evaluation path consume score panels without ever allocating the
  // (batch_size, num_items) matrix.
  void ScoreFactors(const data::Batch& batch, linalg::Matrix* users,
                    linalg::Matrix* items);

  // Last-position user representations (batch_size, d).
  linalg::Matrix UserRepresentations(const data::Batch& batch);

  // --- Incremental serving forward ---------------------------------------
  // Per-session state for the append-one-item eval forward: the transformer
  // K/V caches of every position encoded so far.
  struct SessionStepState {
    nn::TransformerEncoder::StepCache cache;

    std::size_t len() const { return cache.len(); }
    void Clear() { cache.Clear(); }
  };

  // The one-row step forward: appends one item at position state->len() and
  // writes the (1, hidden_dim) final hidden row into *h_row — bitwise
  // identical to the corresponding row of EncodeSequences(train=false) over
  // the same unpadded sequence (tests/serving_test.cc sweeps this). `v` is
  // the item table from EncodeItems(false), passed in so the serving layer
  // can cache it across requests. Requires state->len() < config().max_len;
  // on window overflow the caller clears the state and replays the truncated
  // window. Const and touches no training caches, so distinct sessions may
  // step concurrently from ParallelFor chunks.
  void EncodeSequenceStep(const linalg::Matrix& v, std::size_t item,
                          SessionStepState* state,
                          linalg::Matrix* h_row) const;

 private:
  std::unique_ptr<ItemEncoder> encoder_;
  SasRecConfig config_;
  linalg::Rng rng_;
  SequenceInput input_;
  nn::TransformerEncoder transformer_;

  // Scratch reused across training steps: dH and the (num_items, d) dV live
  // here and are reshaped rather than reallocated.
  linalg::Workspace ws_;
};

// Extracts the per-sequence rows at the last valid position from a
// (batch*L, d) activation.
linalg::Matrix GatherLastPositions(const linalg::Matrix& h,
                                   const data::Batch& batch);

}  // namespace seqrec
}  // namespace whitenrec

#endif  // WHITENREC_SEQREC_MODEL_H_
