#ifndef WHITENREC_NN_TRANSFORMER_H_
#define WHITENREC_NN_TRANSFORMER_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/attention.h"
#include "nn/layers.h"

namespace whitenrec {
namespace nn {

// Position-wise feed-forward: Linear(d, hidden) -> ReLU -> Linear(hidden, d).
class FeedForward : public Layer {
 public:
  FeedForward(std::size_t dim, std::size_t hidden_dim, linalg::Rng* rng,
              std::string name = "ffn");

  linalg::Matrix Forward(const linalg::Matrix& x);
  linalg::Matrix Backward(const linalg::Matrix& dy);

  // Eval-only, cache-free forward (same fc1 -> ReLU -> fc2 arithmetic);
  // safe to call concurrently. Used by the incremental serving path.
  void ForwardEvalInto(const linalg::Matrix& x, linalg::Matrix* y) const;

  void CollectParameters(std::vector<Parameter*>* out) override;

 private:
  Linear fc1_;
  ReLU relu_;
  Linear fc2_;
};

// Pre-LN Transformer block (SASRec sequence-encoder unit):
//   h = x + Dropout(MHSA(LN(x)))
//   y = h + Dropout(FFN(LN(h)))
class TransformerBlock : public Layer {
 public:
  TransformerBlock(std::size_t dim, std::size_t num_heads,
                   std::size_t ffn_hidden, double dropout_rate,
                   linalg::Rng* rng, std::string name = "block",
                   bool causal = true);

  linalg::Matrix Forward(const linalg::Matrix& x, std::size_t batch,
                         std::size_t seq_len, bool train);
  linalg::Matrix Backward(const linalg::Matrix& dy);

  // Incremental eval forward: appends one position to `kv` (which holds this
  // block's K/V rows for the sequence so far) and writes the block output
  // row into *y. Dropout is identity in eval mode, so this mirrors
  // Forward(train=false) exactly; bitwise identical to the appended row of
  // the full forward. Const and cache-free.
  void ForwardStepInto(const linalg::Matrix& x_row, AttentionKvCache* kv,
                       linalg::Matrix* y) const;

  // Eval forward over packed sequences (layout and `last_only` as in
  // MultiHeadSelfAttention::ForwardPackedInto): with `last_only` the
  // attention queries, residuals, LN2 and FFN run on each sequence's last
  // row only. Rows are bitwise those of Forward(train=false). Const and
  // cache-free.
  void ForwardPackedInto(const linalg::Matrix& x,
                         const std::vector<std::size_t>& starts,
                         bool last_only, linalg::Matrix* y) const;

  void CollectParameters(std::vector<Parameter*>* out) override;

 private:
  // y = h + FFN(LN2(h)): the second residual half of both eval forwards.
  void FeedForwardResidualInto(const linalg::Matrix& h,
                               linalg::Matrix* y) const;

  LayerNorm ln1_;
  MultiHeadSelfAttention attn_;
  Dropout drop1_;
  LayerNorm ln2_;
  FeedForward ffn_;
  Dropout drop2_;
};

// Stack of Transformer blocks with a final LayerNorm. The caller supplies
// item + positional embeddings already summed; this class is purely the
// sequence encoder f_theta2 from the paper.
class TransformerEncoder : public Layer {
 public:
  TransformerEncoder(std::size_t dim, std::size_t num_blocks,
                     std::size_t num_heads, std::size_t ffn_hidden,
                     double dropout_rate, linalg::Rng* rng,
                     std::string name = "encoder", bool causal = true);

  linalg::Matrix Forward(const linalg::Matrix& x, std::size_t batch,
                         std::size_t seq_len, bool train);
  linalg::Matrix Backward(const linalg::Matrix& dy);

  // Per-sequence incremental state: one K/V cache per block. len() is the
  // number of positions encoded so far.
  struct StepCache {
    std::vector<AttentionKvCache> blocks;

    std::size_t len() const { return blocks.empty() ? 0 : blocks[0].len; }
    void Clear() {
      for (AttentionKvCache& kv : blocks) kv.Clear();
    }
  };

  // Incremental eval forward: encodes position cache->len() given its
  // embedded input row (1, dim) and returns the final-LayerNorm'd hidden row
  // in *y — bitwise identical to the same row of Forward(train=false) over
  // the full sequence (tests/serving_test.cc). Initializes cache->blocks on
  // first use. Const and cache-free: safe concurrently across sessions.
  void ForwardStepInto(const linalg::Matrix& x_row, StepCache* cache,
                       linalg::Matrix* y) const;

  // Last-position eval forward over causal sequences packed end to end
  // (sequence s is rows [starts[s], starts[s + 1]) of x, at least one row
  // each): blocks 0..B-2 run on every packed row, the last block computes
  // K/V for every row but its query, residual, LN2, FFN and the final
  // LayerNorm only for each sequence's last row. *y receives one row per
  // sequence, bitwise that sequence's last row of Forward(train=false).
  // Const and cache-free: no layer cache, no RNG.
  void ForwardLastRowsInto(const linalg::Matrix& x,
                           const std::vector<std::size_t>& starts,
                           linalg::Matrix* y) const;

  void CollectParameters(std::vector<Parameter*>* out) override;

  std::size_t num_blocks() const { return blocks_.size(); }

 private:
  std::vector<std::unique_ptr<TransformerBlock>> blocks_;
  LayerNorm final_ln_;
};

}  // namespace nn
}  // namespace whitenrec

#endif  // WHITENREC_NN_TRANSFORMER_H_
