#include "seqrec/extended_baselines.h"

#include <algorithm>

#include "nn/gru.h"
#include "nn/loss.h"
#include "nn/tensor.h"
#include "nn/transformer.h"
#include "seqrec/item_encoder.h"
#include "seqrec/sequence_input.h"

namespace whitenrec {
namespace seqrec {

using linalg::Matrix;

namespace {

// ---------------------------------------------------------------------------
// GRU4Rec
// ---------------------------------------------------------------------------

class Gru4RecRecommender final : public TrainableRecommender {
 public:
  Gru4RecRecommender(const data::Dataset& dataset, const SasRecConfig& cfg)
      : config_(cfg), rng_(cfg.seed) {
    encoder_ = std::make_unique<IdEncoder>(dataset.num_items, cfg.hidden_dim,
                                           &rng_, "gru4rec.id");
    input_dropout_ = std::make_unique<nn::Dropout>(cfg.dropout, &rng_);
    gru_ = std::make_unique<nn::Gru>(cfg.hidden_dim, &rng_, "gru4rec.gru");
  }

  std::string name() const override { return "GRU4Rec(ID)"; }
  std::size_t num_items() const override { return encoder_->num_items(); }

  bool ScoreFactors(const data::Batch& batch, Matrix* users,
                    Matrix* items) override {
    *items = encoder_->Forward(/*train=*/false);
    const Matrix h = ForwardHidden(batch, *items, /*train=*/false);
    *users = GatherLastPositions(h, batch);
    return true;
  }

  std::vector<nn::Parameter*> Parameters() override {
    std::vector<nn::Parameter*> params;
    encoder_->CollectParameters(&params);
    gru_->CollectParameters(&params);
    return params;
  }

  const TrainResult& Fit(const data::Split& split,
                         const TrainConfig& config) override {
    result_ = FitWindows(
        this, split, config, config_.max_len, {{"model", &rng_}},
        [this](const data::Batch& batch) { return TrainStep(batch); });
    return result_;
  }

 private:
  Matrix ForwardHidden(const data::Batch& batch, const Matrix& v, bool train) {
    Matrix x = nn::GatherRows(v, batch.items);
    nn::ZeroMaskedRows(batch.input_mask, &x);
    x = input_dropout_->Forward(x, train);
    return gru_->Forward(x, batch.batch_size, batch.seq_len);
  }

  double TrainStep(const data::Batch& batch) {
    const Matrix v = encoder_->Forward(/*train=*/true);
    const Matrix h = ForwardHidden(batch, v, /*train=*/true);
    Matrix dh;
    Matrix dv;
    const double loss = nn::StreamingSoftmaxCrossEntropy(
        h, v, batch.targets, batch.target_weights, &dh, &dv);

    Matrix dx = gru_->Backward(dh);
    dx = input_dropout_->Backward(dx);
    nn::ZeroMaskedRows(batch.input_mask, &dx);
    nn::ScatterAddRows(dx, batch.items, &dv);
    encoder_->Backward(dv);
    return loss;
  }

  SasRecConfig config_;
  linalg::Rng rng_;
  std::unique_ptr<IdEncoder> encoder_;
  std::unique_ptr<nn::Dropout> input_dropout_;
  std::unique_ptr<nn::Gru> gru_;
  TrainResult result_;
};

// ---------------------------------------------------------------------------
// BERT4Rec
// ---------------------------------------------------------------------------

class Bert4RecRecommender final : public TrainableRecommender {
 public:
  Bert4RecRecommender(const data::Dataset& dataset, const SasRecConfig& cfg,
                      double mask_prob)
      : config_(cfg),
        mask_prob_(mask_prob),
        rng_(cfg.seed),
        mask_emb_("bert4rec.mask",
                  linalg::Rng(cfg.seed + 5)
                      .GaussianMatrix(1, cfg.hidden_dim, 0.02)) {
    encoder_ = std::make_unique<IdEncoder>(dataset.num_items, cfg.hidden_dim,
                                           &rng_, "bert4rec.id");
    input_ = std::make_unique<SequenceInput>(
        cfg.max_len, cfg.hidden_dim, cfg.dropout, &rng_, "bert4rec.pos");
    transformer_ = std::make_unique<nn::TransformerEncoder>(
        cfg.hidden_dim, cfg.num_blocks, cfg.num_heads, cfg.ffn_hidden,
        cfg.dropout, &rng_, "bert4rec.trans", /*causal=*/false);
  }

  std::string name() const override { return "BERT4Rec(ID)"; }
  std::size_t num_items() const override { return encoder_->num_items(); }

  // Inference: append a [mask] slot after the context (dropping the oldest
  // item when the window is full); users are the states at that slot.
  // Bidirectional attention reads every row, padded ones included, so this
  // runs the full forward in eval mode rather than a packed one.
  bool ScoreFactors(const data::Batch& batch, Matrix* users,
                    Matrix* items) override {
    data::Batch shifted = batch;
    const std::size_t mask_row = num_items();
    for (std::size_t b = 0; b < batch.batch_size; ++b) {
      const std::size_t last = batch.last_position[b];
      if (last + 1 >= batch.seq_len) {
        // Shift the window left by one to free the final slot.
        for (std::size_t t = 0; t + 1 < batch.seq_len; ++t) {
          shifted.items[batch.Flat(b, t)] = batch.items[batch.Flat(b, t + 1)];
        }
      }
      const std::size_t slot = std::min(last + 1, batch.seq_len - 1);
      shifted.items[batch.Flat(b, slot)] = mask_row;
      shifted.input_mask[batch.Flat(b, slot)] = 1.0;
      shifted.last_position[b] = slot;
    }
    *items = encoder_->Forward(/*train=*/false);
    const Matrix x = input_->Forward(shifted, InputTable(*items), false);
    const Matrix h = transformer_->Forward(x, shifted.batch_size,
                                           shifted.seq_len, false);
    *users = GatherLastPositions(h, shifted);
    return true;
  }

  std::vector<nn::Parameter*> Parameters() override {
    std::vector<nn::Parameter*> params;
    encoder_->CollectParameters(&params);
    params.push_back(&mask_emb_);
    input_->CollectParameters(&params);
    transformer_->CollectParameters(&params);
    return params;
  }

  const TrainResult& Fit(const data::Split& split,
                         const TrainConfig& config) override {
    result_ = FitWindows(
        this, split, config, config_.max_len, {{"model", &rng_}},
        [this](const data::Batch& batch) { return TrainStep(batch); });
    return result_;
  }

 private:
  // The input layer's item table: the catalog rows V, then the [mask]
  // vector as row num_items(), so a masked position is an item id.
  Matrix InputTable(const Matrix& v) const {
    Matrix table = v;
    table.AppendRow(mask_emb_.value.Row(0));
    return table;
  }

  // Cloze training: mask ~mask_prob of valid positions (at least one, always
  // including the final position so the inference-time pattern is seen) and
  // predict the original items there.
  double TrainStep(const data::Batch& batch) {
    const std::size_t n = batch.items.size();
    data::Batch input = batch;
    std::vector<std::size_t> targets(n, 0);
    std::vector<double> weights(n, 0.0);
    for (std::size_t b = 0; b < batch.batch_size; ++b) {
      for (std::size_t t = 0; t <= batch.last_position[b]; ++t) {
        const std::size_t flat = batch.Flat(b, t);
        if (batch.input_mask[flat] == 0.0) continue;
        const bool mask_here =
            t == batch.last_position[b] || rng_.Uniform() < mask_prob_;
        if (mask_here) {
          input.items[flat] = num_items();  // the [mask] row
          targets[flat] = batch.items[flat];
          weights[flat] = 1.0;
        }
      }
    }

    const Matrix v = encoder_->Forward(/*train=*/true);
    const Matrix x = input_->Forward(input, InputTable(v), /*train=*/true);
    const Matrix h =
        transformer_->Forward(x, batch.batch_size, batch.seq_len, true);
    Matrix dh;
    Matrix dv;
    const double loss =
        nn::StreamingSoftmaxCrossEntropy(h, v, targets, weights, &dh, &dv);
    // The input gradient lands on the rows of InputTable(v): the catalog
    // rows go to the encoder, the last one to the [mask] vector.
    dv.AppendRow(std::vector<double>(dv.cols(), 0.0));
    input_->Backward(transformer_->Backward(dh), &dv);
    mask_emb_.grad += dv.RowSlice(num_items(), num_items() + 1);
    encoder_->Backward(dv.RowSlice(0, num_items()));
    return loss;
  }

  SasRecConfig config_;
  double mask_prob_;
  linalg::Rng rng_;
  std::unique_ptr<IdEncoder> encoder_;
  nn::Parameter mask_emb_;
  std::unique_ptr<SequenceInput> input_;
  std::unique_ptr<nn::TransformerEncoder> transformer_;
  TrainResult result_;
};

}  // namespace

std::unique_ptr<TrainableRecommender> MakeGru4Rec(const data::Dataset& dataset,
                                                  const SasRecConfig& config) {
  return std::make_unique<Gru4RecRecommender>(dataset, config);
}

std::unique_ptr<TrainableRecommender> MakeBert4Rec(
    const data::Dataset& dataset, const SasRecConfig& config) {
  return std::make_unique<Bert4RecRecommender>(dataset, config,
                                               /*mask_prob=*/0.3);
}

}  // namespace seqrec
}  // namespace whitenrec
