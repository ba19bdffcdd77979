#include "seqrec/model.h"

#include "linalg/workspace.h"
#include "nn/loss.h"

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
      input_(config.max_len, config.hidden_dim, config.dropout, &rng_, "pos"),
      transformer_(config.hidden_dim, config.num_blocks, config.num_heads,
                   config.ffn_hidden, config.dropout, &rng_) {
  WR_CHECK_EQ(encoder_->output_dim(), config.hidden_dim);
}

std::vector<nn::Parameter*> SasRecModel::Parameters() {
  std::vector<nn::Parameter*> params;
  encoder_->CollectParameters(&params);
  input_.CollectParameters(&params);
  transformer_.CollectParameters(&params);
  return params;
}

Matrix SasRecModel::EncodeItems(bool train) { return encoder_->Forward(train); }

Matrix SasRecModel::EncodeSequences(const data::Batch& batch, const Matrix& v,
                                    bool train) {
  const Matrix x = input_.Forward(batch, v, train);
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
  const Matrix dx = transformer_.Backward(dh);
  if (dv->rows() == 0) {
    dv->Resize(encoder_->num_items(), config_.hidden_dim);
  }
  input_.Backward(dx, dv);
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
  ForwardLastPositions(input_, transformer_, batch, v, users);
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
  Matrix& x = linalg::ThreadLocalWorkspace().MatRef(linalg::kWsEvalInput);
  input_.StepRowInto(v, item, state->len(), &x);
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
