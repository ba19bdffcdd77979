#include "nn/transformer.h"

#include "linalg/workspace.h"

namespace whitenrec {
namespace nn {

using linalg::Matrix;

FeedForward::FeedForward(std::size_t dim, std::size_t hidden_dim,
                         linalg::Rng* rng, std::string name)
    : fc1_(dim, hidden_dim, rng, name + ".fc1"),
      fc2_(hidden_dim, dim, rng, name + ".fc2") {}

Matrix FeedForward::Forward(const Matrix& x) {
  return fc2_.Forward(relu_.Forward(fc1_.Forward(x)));
}

Matrix FeedForward::Backward(const Matrix& dy) {
  return fc1_.Backward(relu_.Backward(fc2_.Backward(dy)));
}

void FeedForward::ForwardEvalInto(const Matrix& x, Matrix* y) const {
  Matrix& hidden = linalg::ThreadLocalWorkspace().MatRef(
      linalg::kWsEvalFfnHidden);
  fc1_.ForwardEvalInto(x, &hidden);
  ReluInPlace(&hidden);
  fc2_.ForwardEvalInto(hidden, y);
}

void FeedForward::CollectParameters(std::vector<Parameter*>* out) {
  fc1_.CollectParameters(out);
  fc2_.CollectParameters(out);
}

TransformerBlock::TransformerBlock(std::size_t dim, std::size_t num_heads,
                                   std::size_t ffn_hidden, double dropout_rate,
                                   linalg::Rng* rng, std::string name,
                                   bool causal)
    : ln1_(dim, name + ".ln1"),
      attn_(dim, num_heads, rng, name + ".attn", causal),
      drop1_(dropout_rate, rng),
      ln2_(dim, name + ".ln2"),
      ffn_(dim, ffn_hidden, rng, name + ".ffn"),
      drop2_(dropout_rate, rng) {}

Matrix TransformerBlock::Forward(const Matrix& x, std::size_t batch,
                                 std::size_t seq_len, bool train) {
  Matrix h = x;
  h += drop1_.Forward(attn_.Forward(ln1_.Forward(x), batch, seq_len), train);
  Matrix y = h;
  y += drop2_.Forward(ffn_.Forward(ln2_.Forward(h)), train);
  return y;
}

void TransformerBlock::ForwardStepInto(const Matrix& x_row,
                                       AttentionKvCache* kv, Matrix* y) const {
  // h = x + Attn(LN1(x)); y = h + FFN(LN2(h)) — dropout is identity in eval
  // mode, so the residual adds below are exactly Forward(train=false)'s.
  linalg::Workspace& ws = linalg::ThreadLocalWorkspace();
  Matrix& ln = ws.MatRef(linalg::kWsEvalNorm);
  Matrix& attn_out = ws.MatRef(linalg::kWsEvalAttnOut);
  Matrix& h = ws.MatRef(linalg::kWsEvalResidual);
  ln1_.ForwardEvalInto(x_row, &ln);
  attn_.ForwardStepInto(ln, kv, &attn_out);
  h = x_row;
  h += attn_out;
  FeedForwardResidualInto(h, y);
}

void TransformerBlock::ForwardPackedInto(const Matrix& x,
                                         const std::vector<std::size_t>& starts,
                                         bool last_only, Matrix* y) const {
  linalg::Workspace& ws = linalg::ThreadLocalWorkspace();
  Matrix& ln = ws.MatRef(linalg::kWsEvalNorm);
  Matrix& attn_out = ws.MatRef(linalg::kWsEvalAttnOut);
  Matrix& h = ws.MatRef(linalg::kWsEvalResidual);
  ln1_.ForwardEvalInto(x, &ln);
  attn_.ForwardPackedInto(ln, starts, last_only, &attn_out);
  if (last_only) {
    GatherLastRowsInto(x, starts, &h);
  } else {
    h = x;
  }
  h += attn_out;
  FeedForwardResidualInto(h, y);
}

void TransformerBlock::FeedForwardResidualInto(const Matrix& h,
                                               Matrix* y) const {
  linalg::Workspace& ws = linalg::ThreadLocalWorkspace();
  Matrix& ln = ws.MatRef(linalg::kWsEvalNorm);
  Matrix& ffn_out = ws.MatRef(linalg::kWsEvalFfnOut);
  ln2_.ForwardEvalInto(h, &ln);
  ffn_.ForwardEvalInto(ln, &ffn_out);
  *y = h;
  *y += ffn_out;
}

Matrix TransformerBlock::Backward(const Matrix& dy) {
  // y = h + Drop(FFN(LN2(h))): residual splits the gradient.
  Matrix dh = dy;
  dh += ln2_.Backward(ffn_.Backward(drop2_.Backward(dy)));
  // h = x + Drop(Attn(LN1(x))).
  Matrix dx = dh;
  dx += ln1_.Backward(attn_.Backward(drop1_.Backward(dh)));
  return dx;
}

void TransformerBlock::CollectParameters(std::vector<Parameter*>* out) {
  ln1_.CollectParameters(out);
  attn_.CollectParameters(out);
  ln2_.CollectParameters(out);
  ffn_.CollectParameters(out);
}

TransformerEncoder::TransformerEncoder(std::size_t dim, std::size_t num_blocks,
                                       std::size_t num_heads,
                                       std::size_t ffn_hidden,
                                       double dropout_rate, linalg::Rng* rng,
                                       std::string name, bool causal)
    : final_ln_(dim, name + ".final_ln") {
  for (std::size_t i = 0; i < num_blocks; ++i) {
    blocks_.push_back(std::make_unique<TransformerBlock>(
        dim, num_heads, ffn_hidden, dropout_rate, rng,
        name + ".block" + std::to_string(i), causal));
  }
}

Matrix TransformerEncoder::Forward(const Matrix& x, std::size_t batch,
                                   std::size_t seq_len, bool train) {
  Matrix h = x;
  for (auto& block : blocks_) {
    h = block->Forward(h, batch, seq_len, train);
  }
  return final_ln_.Forward(h);
}

void TransformerEncoder::ForwardStepInto(const Matrix& x_row,
                                         StepCache* cache, Matrix* y) const {
  WR_CHECK(cache != nullptr);
  if (cache->blocks.size() != blocks_.size()) {
    cache->blocks.assign(blocks_.size(), AttentionKvCache());
  }
  // Block outputs ping-pong between two workspace slots; block 0 reads the
  // input row in place.
  linalg::Workspace& ws = linalg::ThreadLocalWorkspace();
  Matrix* outs[2] = {&ws.MatRef(linalg::kWsEvalBlockA),
                     &ws.MatRef(linalg::kWsEvalBlockB)};
  const Matrix* h = &x_row;
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    Matrix* next = outs[b % 2];
    blocks_[b]->ForwardStepInto(*h, &cache->blocks[b], next);
    h = next;
  }
  final_ln_.ForwardEvalInto(*h, y);
}

void TransformerEncoder::ForwardLastRowsInto(
    const Matrix& x, const std::vector<std::size_t>& starts, Matrix* y) const {
  WR_CHECK(y != &x);
  // Same ping-pong as ForwardStepInto; the last block keeps only the rows
  // the final LayerNorm reads.
  linalg::Workspace& ws = linalg::ThreadLocalWorkspace();
  Matrix* outs[2] = {&ws.MatRef(linalg::kWsEvalBlockA),
                     &ws.MatRef(linalg::kWsEvalBlockB)};
  const Matrix* h = &x;
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    Matrix* next = outs[b % 2];
    blocks_[b]->ForwardPackedInto(*h, starts,
                                  /*last_only=*/b + 1 == blocks_.size(),
                                  next);
    h = next;
  }
  if (blocks_.empty()) {
    GatherLastRowsInto(x, starts, outs[0]);
    h = outs[0];
  }
  final_ln_.ForwardEvalInto(*h, y);
}

Matrix TransformerEncoder::Backward(const Matrix& dy) {
  Matrix dh = final_ln_.Backward(dy);
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
    dh = (*it)->Backward(dh);
  }
  return dh;
}

void TransformerEncoder::CollectParameters(std::vector<Parameter*>* out) {
  for (auto& block : blocks_) block->CollectParameters(out);
  final_ln_.CollectParameters(out);
}

}  // namespace nn
}  // namespace whitenrec
