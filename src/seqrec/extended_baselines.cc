#include "seqrec/extended_baselines.h"

#include <algorithm>

#include "nn/gru.h"
#include "nn/loss.h"
#include "nn/tensor.h"
#include "nn/transformer.h"
#include "seqrec/item_encoder.h"

namespace whitenrec {
namespace seqrec {

using linalg::Matrix;

namespace {

void MaskRows(const std::vector<double>& mask, Matrix* x) {
  for (std::size_t r = 0; r < x->rows(); ++r) {
    if (mask[r] == 0.0) {
      double* row = x->RowPtr(r);
      for (std::size_t c = 0; c < x->cols(); ++c) row[c] = 0.0;
    }
  }
}

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
    linalg::Rng shuffle_rng(config.seed);
    TrainTask task;
    task.recommender = this;
    task.max_len = config_.max_len;
    task.params = Parameters();
    task.rngs = {{"shuffle", &shuffle_rng}, {"model", &rng_}};
    task.run_epoch = WindowEpoch(
        split, config_.max_len, config.batch_size, &shuffle_rng,
        [this](const data::Batch& batch) { return TrainStep(batch); });
    result_ = TrainRecommender(task, split, config);
    return result_;
  }

 private:
  Matrix ForwardHidden(const data::Batch& batch, const Matrix& v, bool train) {
    Matrix x = nn::GatherRows(v, batch.items);
    MaskRows(batch.input_mask, &x);
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
    MaskRows(batch.input_mask, &dx);
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
    pos_emb_ = std::make_unique<nn::Embedding>(cfg.max_len, cfg.hidden_dim,
                                               &rng_, "bert4rec.pos");
    input_dropout_ = std::make_unique<nn::Dropout>(cfg.dropout, &rng_);
    transformer_ = std::make_unique<nn::TransformerEncoder>(
        cfg.hidden_dim, cfg.num_blocks, cfg.num_heads, cfg.ffn_hidden,
        cfg.dropout, &rng_, "bert4rec.trans", /*causal=*/false);
  }

  std::string name() const override { return "BERT4Rec(ID)"; }
  std::size_t num_items() const override { return encoder_->num_items(); }

  // Inference: append a [mask] slot after the context (dropping the oldest
  // item when the window is full); users are the states at that slot.
  bool ScoreFactors(const data::Batch& batch, Matrix* users,
                    Matrix* items) override {
    data::Batch shifted = batch;
    std::vector<char> is_masked(batch.items.size(), 0);
    for (std::size_t b = 0; b < batch.batch_size; ++b) {
      const std::size_t last = batch.last_position[b];
      if (last + 1 < batch.seq_len) {
        const std::size_t flat = batch.Flat(b, last + 1);
        shifted.items[flat] = 0;
        shifted.input_mask[flat] = 1.0;
        is_masked[flat] = 1;
        shifted.last_position[b] = last + 1;
      } else {
        // Shift the window left by one and mask the final slot.
        for (std::size_t t = 0; t + 1 < batch.seq_len; ++t) {
          shifted.items[batch.Flat(b, t)] = batch.items[batch.Flat(b, t + 1)];
        }
        const std::size_t flat = batch.Flat(b, batch.seq_len - 1);
        shifted.items[flat] = 0;
        shifted.input_mask[flat] = 1.0;
        is_masked[flat] = 1;
        shifted.last_position[b] = batch.seq_len - 1;
      }
    }
    *items = encoder_->Forward(/*train=*/false);
    const Matrix x = Embed(shifted, *items, is_masked, /*train=*/false);
    const Matrix h = transformer_->Forward(x, shifted.batch_size,
                                           shifted.seq_len, false);
    *users = GatherLastPositions(h, shifted);
    return true;
  }

  std::vector<nn::Parameter*> Parameters() override {
    std::vector<nn::Parameter*> params;
    encoder_->CollectParameters(&params);
    params.push_back(&mask_emb_);
    pos_emb_->CollectParameters(&params);
    transformer_->CollectParameters(&params);
    return params;
  }

  const TrainResult& Fit(const data::Split& split,
                         const TrainConfig& config) override {
    linalg::Rng shuffle_rng(config.seed);
    TrainTask task;
    task.recommender = this;
    task.max_len = config_.max_len;
    task.params = Parameters();
    task.rngs = {{"shuffle", &shuffle_rng}, {"model", &rng_}};
    task.run_epoch = WindowEpoch(
        split, config_.max_len, config.batch_size, &shuffle_rng,
        [this](const data::Batch& batch) { return TrainStep(batch); });
    result_ = TrainRecommender(task, split, config);
    return result_;
  }

 private:
  // Embeds a batch whose `is_masked[r]` positions use the [mask] vector
  // instead of their item embedding. Caches masking for backward.
  Matrix Embed(const data::Batch& batch, const Matrix& v,
               const std::vector<char>& is_masked, bool train) {
    cached_is_masked_ = is_masked;
    cached_input_mask_ = batch.input_mask;
    cached_items_ = batch.items;
    Matrix x = nn::GatherRows(v, batch.items);
    for (std::size_t r = 0; r < x.rows(); ++r) {
      if (is_masked[r]) {
        std::copy(mask_emb_.value.RowPtr(0),
                  mask_emb_.value.RowPtr(0) + x.cols(), x.RowPtr(r));
      }
    }
    std::vector<std::size_t> positions(batch.items.size());
    for (std::size_t b = 0; b < batch.batch_size; ++b) {
      for (std::size_t t = 0; t < batch.seq_len; ++t) {
        positions[batch.Flat(b, t)] = t;
      }
    }
    x += pos_emb_->Forward(positions);
    MaskRows(batch.input_mask, &x);
    return input_dropout_->Forward(x, train);
  }

  void EmbedBackward(Matrix dx, Matrix* dv) {
    dx = input_dropout_->Backward(dx);
    MaskRows(cached_input_mask_, &dx);
    pos_emb_->Backward(dx);
    // Split the gradient between item rows and the shared mask vector.
    for (std::size_t r = 0; r < dx.rows(); ++r) {
      if (cached_is_masked_[r]) {
        double* mg = mask_emb_.grad.RowPtr(0);
        const double* row = dx.RowPtr(r);
        for (std::size_t c = 0; c < dx.cols(); ++c) mg[c] += row[c];
        // Zero so the scatter below skips this position.
        double* zrow = dx.RowPtr(r);
        for (std::size_t c = 0; c < dx.cols(); ++c) zrow[c] = 0.0;
      }
    }
    nn::ScatterAddRows(dx, cached_items_, dv);
  }

  // Cloze training: mask ~mask_prob of valid positions (at least one, always
  // including the final position so the inference-time pattern is seen) and
  // predict the original items there.
  double TrainStep(const data::Batch& batch) {
    const std::size_t n = batch.items.size();
    std::vector<char> is_masked(n, 0);
    std::vector<std::size_t> targets(n, 0);
    std::vector<double> weights(n, 0.0);
    for (std::size_t b = 0; b < batch.batch_size; ++b) {
      for (std::size_t t = 0; t <= batch.last_position[b]; ++t) {
        const std::size_t flat = batch.Flat(b, t);
        if (batch.input_mask[flat] == 0.0) continue;
        const bool mask_here =
            t == batch.last_position[b] || rng_.Uniform() < mask_prob_;
        if (mask_here) {
          is_masked[flat] = 1;
          targets[flat] = batch.items[flat];
          weights[flat] = 1.0;
        }
      }
    }

    const Matrix v = encoder_->Forward(/*train=*/true);
    const Matrix x = Embed(batch, v, is_masked, /*train=*/true);
    const Matrix h =
        transformer_->Forward(x, batch.batch_size, batch.seq_len, true);
    Matrix dh;
    Matrix dv;
    const double loss =
        nn::StreamingSoftmaxCrossEntropy(h, v, targets, weights, &dh, &dv);
    EmbedBackward(transformer_->Backward(dh), &dv);
    encoder_->Backward(dv);
    return loss;
  }

  SasRecConfig config_;
  double mask_prob_;
  linalg::Rng rng_;
  std::unique_ptr<IdEncoder> encoder_;
  nn::Parameter mask_emb_;
  std::unique_ptr<nn::Embedding> pos_emb_;
  std::unique_ptr<nn::Dropout> input_dropout_;
  std::unique_ptr<nn::TransformerEncoder> transformer_;
  TrainResult result_;

  std::vector<char> cached_is_masked_;
  std::vector<double> cached_input_mask_;
  std::vector<std::size_t> cached_items_;
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
