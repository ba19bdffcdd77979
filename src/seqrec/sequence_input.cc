#include "seqrec/sequence_input.h"

#include "linalg/workspace.h"
#include "nn/tensor.h"

namespace whitenrec {
namespace seqrec {

using linalg::Matrix;

SequenceInput::SequenceInput(std::size_t max_len, std::size_t dim,
                             double dropout, linalg::Rng* rng,
                             std::string name)
    : positions_(max_len, dim, rng, std::move(name)),
      dropout_(dropout, rng) {}

Matrix SequenceInput::Forward(const data::Batch& batch, const Matrix& v,
                              bool train) {
  cached_mask_ = batch.input_mask;
  cached_items_ = batch.items;

  Matrix x = nn::GatherRows(v, batch.items);
  std::vector<std::size_t> positions(batch.items.size());
  for (std::size_t b = 0; b < batch.batch_size; ++b) {
    for (std::size_t t = 0; t < batch.seq_len; ++t) {
      positions[batch.Flat(b, t)] = t;
    }
  }
  x += positions_.Forward(positions);
  // Padded positions contribute nothing downstream.
  nn::ZeroMaskedRows(batch.input_mask, &x);
  return dropout_.Forward(x, train);
}

void SequenceInput::Backward(const Matrix& dx, Matrix* dv) {
  Matrix g = dropout_.Backward(dx);
  nn::ZeroMaskedRows(cached_mask_, &g);
  positions_.Backward(g);
  nn::ScatterAddRows(g, cached_items_, dv);
}

void SequenceInput::PackPrefixesInto(const data::Batch& batch,
                                     const Matrix& v,
                                     std::vector<std::size_t>* starts,
                                     Matrix* x) const {
  const Matrix& pos = positions_.table().value;
  WR_CHECK_EQ(v.cols(), pos.cols());
  WR_CHECK_EQ(batch.last_position.size(), batch.batch_size);
  starts->assign(batch.batch_size + 1, 0);
  for (std::size_t b = 0; b < batch.batch_size; ++b) {
    WR_CHECK_LT(batch.last_position[b], batch.seq_len);
    WR_CHECK_LT(batch.last_position[b], pos.rows());
    (*starts)[b + 1] = (*starts)[b] + batch.last_position[b] + 1;
  }
  x->Resize(starts->back(), pos.cols());
  for (std::size_t b = 0; b < batch.batch_size; ++b) {
    for (std::size_t t = 0; t <= batch.last_position[b]; ++t) {
      const std::size_t flat = batch.Flat(b, t);
      if (batch.input_mask[flat] == 0.0) continue;  // stays zero
      const std::size_t item = batch.items[flat];
      WR_CHECK_LT(item, v.rows());
      double* row = x->RowPtr((*starts)[b] + t);
      for (std::size_t c = 0; c < pos.cols(); ++c) {
        row[c] = v(item, c) + pos(t, c);
      }
    }
  }
}

void SequenceInput::StepRowInto(const Matrix& v, std::size_t item,
                                std::size_t t, Matrix* x) const {
  const Matrix& pos = positions_.table().value;
  WR_CHECK_EQ(v.cols(), pos.cols());
  WR_CHECK_LT(item, v.rows());
  WR_CHECK_LT(t, pos.rows());
  x->Resize(1, pos.cols());
  for (std::size_t c = 0; c < pos.cols(); ++c) {
    (*x)(0, c) = v(item, c) + pos(t, c);
  }
}

void SequenceInput::CollectParameters(std::vector<nn::Parameter*>* out) {
  positions_.CollectParameters(out);
}

void ForwardLastPositions(const SequenceInput& input,
                          const nn::TransformerEncoder& encoder,
                          const data::Batch& batch, const Matrix& v,
                          Matrix* users) {
  std::vector<std::size_t> starts;
  Matrix& x = linalg::ThreadLocalWorkspace().MatRef(linalg::kWsEvalInput);
  input.PackPrefixesInto(batch, v, &starts, &x);
  encoder.ForwardLastRowsInto(x, starts, users);
}

}  // namespace seqrec
}  // namespace whitenrec
