#include "seqrec/model.h"

#include "linalg/workspace.h"
#include "nn/loss.h"
#include "nn/tensor.h"

namespace whitenrec {
namespace seqrec {

using linalg::Matrix;

namespace {
// Slots in SasRecModel::ws_ (see linalg/workspace.h).
constexpr std::size_t kWsDh = 0;
constexpr std::size_t kWsDv = 1;
}  // namespace

SasRecModel::SasRecModel(std::unique_ptr<ItemEncoder> encoder,
                         const SasRecConfig& config)
    : encoder_(std::move(encoder)),
      config_(config),
      rng_(config.seed),
      pos_emb_(config.max_len, config.hidden_dim, &rng_, "pos"),
      input_dropout_(config.dropout, &rng_),
      transformer_(config.hidden_dim, config.num_blocks, config.num_heads,
                   config.ffn_hidden, config.dropout, &rng_) {
  WR_CHECK_EQ(encoder_->output_dim(), config.hidden_dim);
}

std::vector<nn::Parameter*> SasRecModel::Parameters() {
  std::vector<nn::Parameter*> params;
  encoder_->CollectParameters(&params);
  pos_emb_.CollectParameters(&params);
  transformer_.CollectParameters(&params);
  return params;
}

Matrix SasRecModel::EncodeItems(bool train) { return encoder_->Forward(train); }

Matrix SasRecModel::EmbedInputs(const data::Batch& batch, const Matrix& v,
                                bool train) {
  cached_input_mask_ = batch.input_mask;
  cached_items_ = batch.items;

  Matrix x = nn::GatherRows(v, batch.items);
  // Positional embeddings: position index within the sequence.
  std::vector<std::size_t> positions(batch.items.size());
  for (std::size_t b = 0; b < batch.batch_size; ++b) {
    for (std::size_t t = 0; t < batch.seq_len; ++t) {
      positions[batch.Flat(b, t)] = t;
    }
  }
  x += pos_emb_.Forward(positions);
  // Zero padded positions so they contribute nothing downstream.
  for (std::size_t r = 0; r < x.rows(); ++r) {
    if (batch.input_mask[r] == 0.0) {
      double* row = x.RowPtr(r);
      for (std::size_t c = 0; c < x.cols(); ++c) row[c] = 0.0;
    }
  }
  return input_dropout_.Forward(x, train);
}

Matrix SasRecModel::EncodeSequences(const data::Batch& batch, const Matrix& v,
                                    bool train) {
  const Matrix x = EmbedInputs(batch, v, train);
  return transformer_.Forward(x, batch.batch_size, batch.seq_len, train);
}

double SasRecModel::SequenceLossAndGrad(const data::Batch& batch,
                                        const Matrix& h, const Matrix& v,
                                        Matrix* dh, Matrix* dv) {
  WR_CHECK(dh != nullptr);
  WR_CHECK(dv != nullptr);
  // The loss consumes score panels straight out of the GEMM epilogue; no
  // (batch*L, num_items) logits buffer exists at any point.
  return nn::StreamingSoftmaxCrossEntropy(h, v, batch.targets,
                                          batch.target_weights, dh, dv);
}

void SasRecModel::BackwardSequences(const data::Batch& /*batch*/,
                                    const Matrix& dh, Matrix* dv) {
  // The forward pass cached the batch's mask and item ids; the parameter is
  // kept so call sites read naturally as the mirror of EncodeSequences.
  Matrix dx = transformer_.Backward(dh);
  dx = input_dropout_.Backward(dx);
  // The padding mask was applied after embedding: zero those grads.
  for (std::size_t r = 0; r < dx.rows(); ++r) {
    if (cached_input_mask_[r] == 0.0) {
      double* row = dx.RowPtr(r);
      for (std::size_t c = 0; c < dx.cols(); ++c) row[c] = 0.0;
    }
  }
  pos_emb_.Backward(dx);
  if (dv->rows() == 0) {
    dv->Resize(encoder_->num_items(), config_.hidden_dim);
  }
  nn::ScatterAddRows(dx, cached_items_, dv);
}

void SasRecModel::BackwardItems(const Matrix& dv) { encoder_->Backward(dv); }

double SasRecModel::TrainStep(const data::Batch& batch) {
  const Matrix v = EncodeItems(/*train=*/true);
  const Matrix h = EncodeSequences(batch, v, /*train=*/true);
  Matrix& dh = ws_.MatRef(kWsDh);
  Matrix& dv = ws_.MatRef(kWsDv);
  dv.Resize(0, 0);  // empty signals "zero-fill at the right shape" below
  const double loss = SequenceLossAndGrad(batch, h, v, &dh, &dv);
  BackwardSequences(batch, dh, &dv);
  BackwardItems(dv);
  return loss;
}

Matrix GatherLastPositions(const Matrix& h, const data::Batch& batch) {
  Matrix out(batch.batch_size, h.cols());
  for (std::size_t b = 0; b < batch.batch_size; ++b) {
    const std::size_t flat = batch.Flat(b, batch.last_position[b]);
    out.SetRow(b, h.Row(flat));
  }
  return out;
}

void SasRecModel::EncodeLastPositions(const data::Batch& batch,
                                      const Matrix& v, Matrix* users) const {
  WR_CHECK(users != nullptr);
  WR_CHECK_EQ(v.cols(), config_.hidden_dim);
  WR_CHECK_EQ(batch.last_position.size(), batch.batch_size);
  // Batches are right-padded and attention is causal, so the rows after a
  // sequence's last position never reach it: pack each prefix
  // [0, last_position] end to end and drop the rest.
  std::vector<std::size_t> starts(batch.batch_size + 1, 0);
  for (std::size_t b = 0; b < batch.batch_size; ++b) {
    WR_CHECK_LT(batch.last_position[b], batch.seq_len);
    WR_CHECK_LT(batch.last_position[b], config_.max_len);
    starts[b + 1] = starts[b] + batch.last_position[b] + 1;
  }
  // Embedded input rows, exactly EmbedInputs' gather + positional add in
  // eval mode (dropout identity); a padded row inside a prefix is zeroed as
  // EmbedInputs zeroes it.
  const Matrix& pos = pos_emb_.table().value;
  Matrix& x = linalg::ThreadLocalWorkspace().Mat(
      linalg::kWsEvalInput, starts.back(), config_.hidden_dim);
  for (std::size_t b = 0; b < batch.batch_size; ++b) {
    for (std::size_t t = 0; t <= batch.last_position[b]; ++t) {
      const std::size_t flat = batch.Flat(b, t);
      if (batch.input_mask[flat] == 0.0) continue;  // stays zero
      const std::size_t item = batch.items[flat];
      WR_CHECK_LT(item, v.rows());
      double* row = x.RowPtr(starts[b] + t);
      for (std::size_t c = 0; c < config_.hidden_dim; ++c) {
        row[c] = v(item, c) + pos(t, c);
      }
    }
  }
  transformer_.ForwardLastRowsInto(x, starts, users);
}

Matrix SasRecModel::ScoreLastPositions(const data::Batch& batch) {
  Matrix users;
  Matrix items;
  ScoreFactors(batch, &users, &items);
  return linalg::MatMulTransB(users, items);
}

void SasRecModel::ScoreFactors(const data::Batch& batch, Matrix* users,
                               Matrix* items) {
  WR_CHECK(users != nullptr);
  WR_CHECK(items != nullptr);
  *items = EncodeItems(/*train=*/false);
  EncodeLastPositions(batch, *items, users);
}

void SasRecModel::EncodeSequenceStep(const Matrix& v, std::size_t item,
                                     SessionStepState* state,
                                     Matrix* h_row) const {
  WR_CHECK(state != nullptr);
  WR_CHECK(h_row != nullptr);
  WR_CHECK_LT(item, v.rows());
  const std::size_t t = state->len();
  WR_CHECK_LT(t, config_.max_len);
  // Embedded input row: item embedding + positional embedding, exactly
  // EmbedInputs' gather + add for an unpadded position in eval mode
  // (dropout identity, mask all-valid).
  const Matrix& pos = pos_emb_.table().value;
  Matrix& x = linalg::ThreadLocalWorkspace().Mat(linalg::kWsEvalInput, 1,
                                                 config_.hidden_dim);
  for (std::size_t c = 0; c < config_.hidden_dim; ++c) {
    x(0, c) = v(item, c) + pos(t, c);
  }
  transformer_.ForwardStepInto(x, &state->cache, h_row);
}

Matrix SasRecModel::UserRepresentations(const data::Batch& batch) {
  const Matrix v = EncodeItems(/*train=*/false);
  Matrix users;
  EncodeLastPositions(batch, v, &users);
  return users;
}

}  // namespace seqrec
}  // namespace whitenrec
