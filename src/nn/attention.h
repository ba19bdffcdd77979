#ifndef WHITENREC_NN_ATTENTION_H_
#define WHITENREC_NN_ATTENTION_H_

#include <string>
#include <vector>

#include "nn/layers.h"

namespace whitenrec {
namespace nn {

// Multi-head self-attention over a batch of equal-length sequences.
// Input/output activations have shape (batch * seq_len, dim); sequence b
// occupies rows [b * seq_len, (b + 1) * seq_len). With `causal` (the SASRec
// default) position i attends to positions <= i; without it attention is
// bidirectional (the BERT4Rec setting). Dropout is applied by the
// surrounding Transformer block on the sublayer output, not on the attention
// probabilities.
// Per-sequence key/value cache for the incremental (append-one-position)
// eval forward. Holds the projected K/V rows of every position seen so far;
// rows [0, len) of `k`/`v` are valid, the matrices grow amortized. Because
// attention is causal, appending a position never changes earlier K/V rows,
// so the cache stays valid until the sequence window itself shifts (max_len
// truncation) — at which point the owner discards it and replays the window.
struct AttentionKvCache {
  linalg::Matrix k;
  linalg::Matrix v;
  std::size_t len = 0;

  void Clear() { len = 0; }
  // Appends one row (copied from src row 0), growing capacity geometrically.
  void Append(const linalg::Matrix& k_row, const linalg::Matrix& v_row);
};

// Copies the last row of each sequence packed in x (row starts[s + 1] - 1,
// with starts laid out as in MultiHeadSelfAttention::ForwardPackedInto)
// into row s of *out.
void GatherLastRowsInto(const linalg::Matrix& x,
                        const std::vector<std::size_t>& starts,
                        linalg::Matrix* out);

class MultiHeadSelfAttention : public Layer {
 public:
  MultiHeadSelfAttention(std::size_t dim, std::size_t num_heads,
                         linalg::Rng* rng, std::string name = "mhsa",
                         bool causal = true);

  linalg::Matrix Forward(const linalg::Matrix& x, std::size_t batch,
                         std::size_t seq_len);
  linalg::Matrix Backward(const linalg::Matrix& dy);

  // Incremental eval forward for one sequence: x_row is the (1, dim) input
  // of position kv->len; the K/V rows of positions [0, kv->len) are read
  // from the cache, the new position's K/V rows are appended, and *y
  // receives the (1, dim) attention output. Requires `causal`. Forward,
  // this and ForwardPackedInto compute every query row through one
  // score / softmax / value-mix routine (and this library builds with
  // -ffp-contract=off), so *y is bitwise identical to row kv->len of
  // Forward over the same full sequence. Const and cache-free: safe to run
  // concurrently across sessions.
  void ForwardStepInto(const linalg::Matrix& x_row, AttentionKvCache* kv,
                       linalg::Matrix* y) const;

  // Eval forward over sequences packed end to end: sequence s occupies rows
  // [starts[s], starts[s + 1]) of x, every sequence holds at least one row,
  // and starts.back() == x.rows(). K/V are projected for every row. With
  // `last_only`, only each sequence's last row is a query and *y has one row
  // per sequence; otherwise *y has a row per row of x. Requires `causal`:
  // the packed rows stand for prefixes, which only causal attention leaves
  // unchanged. Each output row is bitwise the matching row of Forward.
  // Const and cache-free, parallel over (sequence, head) pairs.
  void ForwardPackedInto(const linalg::Matrix& x,
                         const std::vector<std::size_t>& starts,
                         bool last_only, linalg::Matrix* y) const;

  void CollectParameters(std::vector<Parameter*>* out) override;

  std::size_t num_heads() const { return num_heads_; }

 private:
  std::size_t dim_;
  std::size_t num_heads_;
  std::size_t head_dim_;
  bool causal_;
  std::size_t batch_ = 0;
  std::size_t seq_len_ = 0;

  Linear wq_;
  Linear wk_;
  Linear wv_;
  Linear wo_;

  // Forward caches: projected Q/K/V (batch*L, dim) and, per (sequence, head),
  // the (L, L) causal-masked attention probabilities.
  linalg::Matrix cached_q_;
  linalg::Matrix cached_k_;
  linalg::Matrix cached_v_;
  std::vector<linalg::Matrix> cached_probs_;

  // Per-batch scratch reused across steps (reshaped, not reallocated).
  linalg::Matrix mixed_;
  linalg::Matrix dmixed_;
  linalg::Matrix dq_;
  linalg::Matrix dk_;
  linalg::Matrix dv_;
};

}  // namespace nn
}  // namespace whitenrec

#endif  // WHITENREC_NN_ATTENTION_H_
