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

}  // namespace

// ---------------------------------------------------------------------------
// GRU4Rec
// ---------------------------------------------------------------------------

struct Gru4RecRecommender::Impl {
  SasRecConfig config;
  linalg::Rng rng;
  std::unique_ptr<IdEncoder> encoder;
  std::unique_ptr<nn::Dropout> input_dropout;
  std::unique_ptr<nn::Gru> gru;
  TrainResult result;

  Impl(const data::Dataset& dataset, const SasRecConfig& cfg)
      : config(cfg), rng(cfg.seed) {
    encoder = std::make_unique<IdEncoder>(dataset.num_items, cfg.hidden_dim,
                                          &rng, "gru4rec.id");
    input_dropout = std::make_unique<nn::Dropout>(cfg.dropout, &rng);
    gru = std::make_unique<nn::Gru>(cfg.hidden_dim, &rng, "gru4rec.gru");
  }

  std::vector<nn::Parameter*> Parameters() {
    std::vector<nn::Parameter*> params;
    encoder->CollectParameters(&params);
    gru->CollectParameters(&params);
    return params;
  }

  Matrix ForwardHidden(const data::Batch& batch, const Matrix& v, bool train) {
    Matrix x = nn::GatherRows(v, batch.items);
    MaskRows(batch.input_mask, &x);
    x = input_dropout->Forward(x, train);
    return gru->Forward(x, batch.batch_size, batch.seq_len);
  }

  double TrainStep(const data::Batch& batch) {
    const Matrix v = encoder->Forward(/*train=*/true);
    const Matrix h = ForwardHidden(batch, v, /*train=*/true);
    const Matrix logits = linalg::MatMulTransB(h, v);
    Matrix dlogits;
    const double loss = nn::SoftmaxCrossEntropy(
        logits, batch.targets, batch.target_weights, &dlogits);
    const Matrix dh = linalg::MatMul(dlogits, v);
    Matrix dv = linalg::MatMulTransA(dlogits, h);

    Matrix dx = gru->Backward(dh);
    dx = input_dropout->Backward(dx);
    MaskRows(batch.input_mask, &dx);
    nn::ScatterAddRows(dx, batch.items, &dv);
    encoder->Backward(dv);
    return loss;
  }

  Matrix Score(const data::Batch& batch) {
    const Matrix v = encoder->Forward(/*train=*/false);
    const Matrix h = ForwardHidden(batch, v, /*train=*/false);
    const Matrix s = GatherLastPositions(h, batch);
    return linalg::MatMulTransB(s, v);
  }
};

Gru4RecRecommender::Gru4RecRecommender(const data::Dataset& dataset,
                                       const SasRecConfig& config)
    : impl_(std::make_unique<Impl>(dataset, config)) {}
Gru4RecRecommender::~Gru4RecRecommender() = default;

std::size_t Gru4RecRecommender::num_items() const {
  return impl_->encoder->num_items();
}

Matrix Gru4RecRecommender::ScoreLastPositions(const data::Batch& batch) {
  return impl_->Score(batch);
}

std::size_t Gru4RecRecommender::NumParameters() {
  std::size_t n = 0;
  for (nn::Parameter* p : impl_->Parameters()) n += p->NumElements();
  return n;
}

const TrainResult& Gru4RecRecommender::Fit(const data::Split& split,
                                           const TrainConfig& config) {
  Impl& im = *impl_;
  linalg::Rng shuffle_rng(config.seed);
  TrainTask task;
  task.recommender = this;
  task.max_len = im.config.max_len;
  task.params = im.Parameters();
  task.rngs = {{"shuffle", &shuffle_rng}, {"model", &im.rng}};
  task.run_epoch = WindowEpoch(
      split, im.config.max_len, config.batch_size, &shuffle_rng,
      [&im](const data::Batch& batch) { return im.TrainStep(batch); });
  im.result = TrainRecommender(task, split, config);
  return im.result;
}

std::unique_ptr<Gru4RecRecommender> MakeGru4Rec(const data::Dataset& dataset,
                                                const SasRecConfig& config) {
  return std::make_unique<Gru4RecRecommender>(dataset, config);
}

// ---------------------------------------------------------------------------
// BERT4Rec
// ---------------------------------------------------------------------------

struct Bert4RecRecommender::Impl {
  SasRecConfig config;
  double mask_prob;
  linalg::Rng rng;
  std::unique_ptr<IdEncoder> encoder;
  nn::Parameter mask_emb;
  std::unique_ptr<nn::Embedding> pos_emb;
  std::unique_ptr<nn::Dropout> input_dropout;
  std::unique_ptr<nn::TransformerEncoder> transformer;
  TrainResult result;

  Impl(const data::Dataset& dataset, const SasRecConfig& cfg, double mp)
      : config(cfg),
        mask_prob(mp),
        rng(cfg.seed),
        mask_emb("bert4rec.mask", linalg::Rng(cfg.seed + 5)
                                      .GaussianMatrix(1, cfg.hidden_dim, 0.02)) {
    encoder = std::make_unique<IdEncoder>(dataset.num_items, cfg.hidden_dim,
                                          &rng, "bert4rec.id");
    pos_emb = std::make_unique<nn::Embedding>(cfg.max_len, cfg.hidden_dim,
                                              &rng, "bert4rec.pos");
    input_dropout = std::make_unique<nn::Dropout>(cfg.dropout, &rng);
    transformer = std::make_unique<nn::TransformerEncoder>(
        cfg.hidden_dim, cfg.num_blocks, cfg.num_heads, cfg.ffn_hidden,
        cfg.dropout, &rng, "bert4rec.trans", /*causal=*/false);
  }

  std::vector<nn::Parameter*> Parameters() {
    std::vector<nn::Parameter*> params;
    encoder->CollectParameters(&params);
    params.push_back(&mask_emb);
    pos_emb->CollectParameters(&params);
    transformer->CollectParameters(&params);
    return params;
  }

  // Embeds a batch whose `is_masked[r]` positions use the [mask] vector
  // instead of their item embedding. Caches masking for backward.
  std::vector<char> cached_is_masked;
  std::vector<double> cached_input_mask;
  std::vector<std::size_t> cached_items;

  Matrix Embed(const data::Batch& batch, const Matrix& v,
               const std::vector<char>& is_masked, bool train) {
    cached_is_masked = is_masked;
    cached_input_mask = batch.input_mask;
    cached_items = batch.items;
    Matrix x = nn::GatherRows(v, batch.items);
    for (std::size_t r = 0; r < x.rows(); ++r) {
      if (is_masked[r]) {
        std::copy(mask_emb.value.RowPtr(0),
                  mask_emb.value.RowPtr(0) + x.cols(), x.RowPtr(r));
      }
    }
    std::vector<std::size_t> positions(batch.items.size());
    for (std::size_t b = 0; b < batch.batch_size; ++b) {
      for (std::size_t t = 0; t < batch.seq_len; ++t) {
        positions[batch.Flat(b, t)] = t;
      }
    }
    x += pos_emb->Forward(positions);
    MaskRows(batch.input_mask, &x);
    return input_dropout->Forward(x, train);
  }

  void EmbedBackward(Matrix dx, Matrix* dv) {
    dx = input_dropout->Backward(dx);
    MaskRows(cached_input_mask, &dx);
    pos_emb->Backward(dx);
    // Split the gradient between item rows and the shared mask vector.
    for (std::size_t r = 0; r < dx.rows(); ++r) {
      if (cached_is_masked[r]) {
        double* mg = mask_emb.grad.RowPtr(0);
        const double* row = dx.RowPtr(r);
        for (std::size_t c = 0; c < dx.cols(); ++c) mg[c] += row[c];
        // Zero so the scatter below skips this position.
        double* zrow = dx.RowPtr(r);
        for (std::size_t c = 0; c < dx.cols(); ++c) zrow[c] = 0.0;
      }
    }
    nn::ScatterAddRows(dx, cached_items, dv);
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
            t == batch.last_position[b] || rng.Uniform() < mask_prob;
        if (mask_here) {
          is_masked[flat] = 1;
          targets[flat] = batch.items[flat];
          weights[flat] = 1.0;
        }
      }
    }

    const Matrix v = encoder->Forward(/*train=*/true);
    const Matrix x = Embed(batch, v, is_masked, /*train=*/true);
    const Matrix h =
        transformer->Forward(x, batch.batch_size, batch.seq_len, true);
    const Matrix logits = linalg::MatMulTransB(h, v);
    Matrix dlogits;
    const double loss = nn::SoftmaxCrossEntropy(logits, targets, weights,
                                                &dlogits);
    const Matrix dh = linalg::MatMul(dlogits, v);
    Matrix dv = linalg::MatMulTransA(dlogits, h);
    EmbedBackward(transformer->Backward(dh), &dv);
    encoder->Backward(dv);
    return loss;
  }

  // Inference: append a [mask] slot after the context (dropping the oldest
  // item when the window is full) and rank the catalog at that slot.
  Matrix Score(const data::Batch& batch) {
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
    const Matrix v = encoder->Forward(/*train=*/false);
    const Matrix x = Embed(shifted, v, is_masked, /*train=*/false);
    const Matrix h = transformer->Forward(x, shifted.batch_size,
                                          shifted.seq_len, false);
    const Matrix s = GatherLastPositions(h, shifted);
    return linalg::MatMulTransB(s, v);
  }
};

Bert4RecRecommender::Bert4RecRecommender(const data::Dataset& dataset,
                                         const SasRecConfig& config,
                                         double mask_prob)
    : impl_(std::make_unique<Impl>(dataset, config, mask_prob)) {}
Bert4RecRecommender::~Bert4RecRecommender() = default;

std::size_t Bert4RecRecommender::num_items() const {
  return impl_->encoder->num_items();
}

Matrix Bert4RecRecommender::ScoreLastPositions(const data::Batch& batch) {
  return impl_->Score(batch);
}

std::size_t Bert4RecRecommender::NumParameters() {
  std::size_t n = 0;
  for (nn::Parameter* p : impl_->Parameters()) n += p->NumElements();
  return n;
}

const TrainResult& Bert4RecRecommender::Fit(const data::Split& split,
                                            const TrainConfig& config) {
  Impl& im = *impl_;
  linalg::Rng shuffle_rng(config.seed);
  TrainTask task;
  task.recommender = this;
  task.max_len = im.config.max_len;
  task.params = im.Parameters();
  task.rngs = {{"shuffle", &shuffle_rng}, {"model", &im.rng}};
  task.run_epoch = WindowEpoch(
      split, im.config.max_len, config.batch_size, &shuffle_rng,
      [&im](const data::Batch& batch) { return im.TrainStep(batch); });
  im.result = TrainRecommender(task, split, config);
  return im.result;
}

std::unique_ptr<Bert4RecRecommender> MakeBert4Rec(const data::Dataset& dataset,
                                                  const SasRecConfig& config) {
  return std::make_unique<Bert4RecRecommender>(dataset, config);
}

}  // namespace seqrec
}  // namespace whitenrec
