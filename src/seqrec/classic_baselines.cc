#include "seqrec/classic_baselines.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

#include "nn/loss.h"
#include "nn/tensor.h"

namespace whitenrec {
namespace seqrec {

using linalg::Matrix;

// ---------------------------------------------------------------------------
// FPMC
// ---------------------------------------------------------------------------

namespace {

class FpmcRecommender final : public TrainableRecommender {
 public:
  FpmcRecommender(const data::Dataset& dataset, std::size_t d,
                  std::uint64_t seed)
      : dim_(d),
        num_users_(dataset.sequences.size()),
        num_items_(dataset.num_items),
        rng_(seed),
        user_ui_("fpmc.user", rng_.GaussianMatrix(num_users_, d, 0.05)),
        item_iu_("fpmc.iu", rng_.GaussianMatrix(dataset.num_items, d, 0.05)),
        item_il_("fpmc.il", rng_.GaussianMatrix(dataset.num_items, d, 0.05)),
        item_li_("fpmc.li", rng_.GaussianMatrix(dataset.num_items, d, 0.05)) {}

  std::string name() const override { return "FPMC(ID)"; }
  std::size_t num_items() const override { return num_items_; }

  // The two factor pairs side by side: users (B, 2d) = [U_u, Il_prev] and
  // items (N, 2d) = [Iu, Li], so users * items^T = U_u Iu^T + Il_prev Li^T.
  bool ScoreFactors(const data::Batch& batch, Matrix* users,
                    Matrix* items) override {
    users->Resize(batch.batch_size, 2 * dim_);
    for (std::size_t b = 0; b < batch.batch_size; ++b) {
      const std::size_t user = batch.users[b];
      const std::size_t prev =
          batch.items[batch.Flat(b, batch.last_position[b])];
      WR_CHECK_LT(user, num_users_);
      double* row = users->RowPtr(b);
      std::copy_n(user_ui_.value.RowPtr(user), dim_, row);
      std::copy_n(item_il_.value.RowPtr(prev), dim_, row + dim_);
    }
    items->Resize(num_items_, 2 * dim_);
    items->SetColSlice(0, item_iu_.value);
    items->SetColSlice(dim_, item_li_.value);
    return true;
  }

  std::vector<nn::Parameter*> Parameters() override {
    return {&user_ui_, &item_iu_, &item_il_, &item_li_};
  }

  const TrainResult& Fit(const data::Split& split,
                         const TrainConfig& config) override {
    std::vector<std::array<std::size_t, 3>> triples;
    for (std::size_t u = 0; u < split.train.size() && u < num_users_; ++u) {
      const auto& seq = split.train[u];
      for (std::size_t t = 1; t < seq.size(); ++t) {
        triples.push_back({u, seq[t - 1], seq[t]});
      }
    }
    // Each epoch reshuffles the previous epoch's order of the triples.
    std::vector<std::size_t> order(triples.size());
    std::iota(order.begin(), order.end(), 0);

    TrainTask task;
    task.recommender = this;
    task.max_len = 8;  // FPMC reads only the most recent item
    task.params = Parameters();
    task.rngs = {{"model", &rng_}};
    task.sample_order = &order;
    task.run_epoch = [&](nn::Adam* optimizer) {
      return ShuffledPass(
          triples, &order, &rng_, config.batch_size, optimizer,
          [this](const std::vector<std::array<std::size_t, 3>>& batch) {
            return Step(batch);
          });
    };
    result_ = TrainRecommender(task, split, config);
    return result_;
  }

 private:
  double Score(std::size_t user, std::size_t prev, std::size_t item) const {
    return linalg::Dot(user_ui_.value.Row(user), item_iu_.value.Row(item)) +
           linalg::Dot(item_il_.value.Row(prev), item_li_.value.Row(item));
  }

  // BPR step over (user, prev, pos) triples with one sampled negative each.
  double Step(const std::vector<std::array<std::size_t, 3>>& triples) {
    std::vector<double> pos_scores(triples.size());
    std::vector<double> neg_scores(triples.size());
    std::vector<std::size_t> negatives(triples.size());
    for (std::size_t b = 0; b < triples.size(); ++b) {
      const auto [u, prev, pos] = triples[b];
      std::size_t neg = rng_.UniformInt(num_items_);
      while (neg == pos) neg = rng_.UniformInt(num_items_);
      negatives[b] = neg;
      pos_scores[b] = Score(u, prev, pos);
      neg_scores[b] = Score(u, prev, neg);
    }
    std::vector<double> dpos, dneg;
    const double loss = nn::BprLoss(pos_scores, neg_scores, &dpos, &dneg);
    for (std::size_t b = 0; b < triples.size(); ++b) {
      const auto [u, prev, pos] = triples[b];
      const std::size_t neg = negatives[b];
      for (std::size_t c = 0; c < dim_; ++c) {
        const double uu = user_ui_.value(u, c);
        const double il = item_il_.value(prev, c);
        // d score / d factors, weighted by the BPR gradients.
        user_ui_.grad(u, c) += dpos[b] * item_iu_.value(pos, c) +
                               dneg[b] * item_iu_.value(neg, c);
        item_iu_.grad(pos, c) += dpos[b] * uu;
        item_iu_.grad(neg, c) += dneg[b] * uu;
        item_il_.grad(prev, c) += dpos[b] * item_li_.value(pos, c) +
                                  dneg[b] * item_li_.value(neg, c);
        item_li_.grad(pos, c) += dpos[b] * il;
        item_li_.grad(neg, c) += dneg[b] * il;
      }
    }
    return loss;
  }

  std::size_t dim_;
  std::size_t num_users_;
  std::size_t num_items_;
  linalg::Rng rng_;
  nn::Parameter user_ui_;  // (n_u, d)
  nn::Parameter item_iu_;  // (N, d)
  nn::Parameter item_il_;  // (N, d) previous-item factors
  nn::Parameter item_li_;  // (N, d) next-item factors
  TrainResult result_;
};

// ---------------------------------------------------------------------------
// Caser
// ---------------------------------------------------------------------------

class CaserRecommender final : public TrainableRecommender {
 public:
  CaserRecommender(const data::Dataset& dataset, const SasRecConfig& cfg,
                   std::size_t nh, std::size_t nv)
      : config_(cfg),
        num_items_(dataset.num_items),
        num_h_(nh),
        num_v_(nv),
        rng_(cfg.seed),
        emb_("caser.emb", rng_.GaussianMatrix(dataset.num_items,
                                              cfg.hidden_dim, 0.02)),
        out_emb_("caser.out", rng_.GaussianMatrix(dataset.num_items,
                                                  cfg.hidden_dim, 0.02)),
        v_filter_("caser.v", rng_.GaussianMatrix(nv, cfg.max_len, 0.1)) {
    for (std::size_t h : heights_) {
      h_filters_.emplace_back(
          "caser.h" + std::to_string(h),
          rng_.GaussianMatrix(num_h_, h * cfg.hidden_dim, 0.1));
    }
    fc_ = std::make_unique<nn::Linear>(FeatureDim(), cfg.hidden_dim, &rng_,
                                       "caser.fc");
  }

  std::string name() const override { return "Caser(ID)"; }
  std::size_t num_items() const override { return num_items_; }

  // Users are the convolutional representations; items the separate output
  // embedding table.
  bool ScoreFactors(const data::Batch& batch, Matrix* users,
                    Matrix* items) override {
    *users = ForwardReps(batch);
    *items = out_emb_.value;
    return true;
  }

  std::vector<nn::Parameter*> Parameters() override {
    std::vector<nn::Parameter*> params = {&emb_, &out_emb_, &v_filter_};
    for (nn::Parameter& p : h_filters_) params.push_back(&p);
    fc_->CollectParameters(&params);
    return params;
  }

  const TrainResult& Fit(const data::Split& split,
                         const TrainConfig& config) override {
    // Caser has no dropout: no stream beyond the batch shuffle.
    result_ = FitWindows(
        this, split, config, config_.max_len, /*streams=*/{},
        [this](const data::Batch& batch) { return TrainStep(batch); });
    return result_;
  }

 private:
  std::size_t FeatureDim() const {
    return heights_.size() * num_h_ + num_v_ * config_.hidden_dim;
  }

  // Builds the (L, d) left-padded embedding image of sequence b.
  Matrix SequenceImage(const data::Batch& batch, std::size_t b,
                       std::vector<std::size_t>* items_out) {
    const std::size_t L = config_.max_len;
    const std::size_t d = config_.hidden_dim;
    Matrix x(L, d);
    std::vector<std::size_t> items;
    for (std::size_t t = 0; t <= batch.last_position[b]; ++t) {
      const std::size_t flat = batch.Flat(b, t);
      if (batch.input_mask[flat] != 0.0) items.push_back(batch.items[flat]);
    }
    const std::size_t offset = L - items.size();
    for (std::size_t k = 0; k < items.size(); ++k) {
      x.SetRow(offset + k, emb_.value.Row(items[k]));
    }
    *items_out = std::move(items);
    return x;
  }

  // Convolutional features of one image; fills per-sequence caches.
  std::vector<double> Features(const Matrix& x, std::size_t b) {
    const std::size_t L = config_.max_len;
    const std::size_t d = config_.hidden_dim;
    std::vector<double> feats;
    feats.reserve(FeatureDim());
    cached_argmax_[b].assign(heights_.size(), {});
    cached_hact_[b].assign(heights_.size(), {});
    for (std::size_t hi = 0; hi < heights_.size(); ++hi) {
      const std::size_t h = heights_[hi];
      const Matrix& w = h_filters_[hi].value;
      cached_argmax_[b][hi].assign(num_h_, 0);
      cached_hact_[b][hi].assign(num_h_, 0.0);
      for (std::size_t f = 0; f < num_h_; ++f) {
        double best = -1e300;
        std::size_t best_t = 0;
        for (std::size_t t = 0; t + h <= L; ++t) {
          double act = 0.0;
          const double* wf = w.RowPtr(f);
          for (std::size_t r = 0; r < h; ++r) {
            const double* xr = x.RowPtr(t + r);
            for (std::size_t c = 0; c < d; ++c) act += wf[r * d + c] * xr[c];
          }
          if (act > best) {
            best = act;
            best_t = t;
          }
        }
        cached_argmax_[b][hi][f] = best_t;
        cached_hact_[b][hi][f] = best;
        feats.push_back(std::max(best, 0.0));  // ReLU after max-pool
      }
    }
    // Vertical filters: weighted sums over time per dimension.
    for (std::size_t f = 0; f < num_v_; ++f) {
      const double* wf = v_filter_.value.RowPtr(f);
      for (std::size_t c = 0; c < d; ++c) {
        double acc = 0.0;
        for (std::size_t t = 0; t < L; ++t) acc += wf[t] * x(t, c);
        feats.push_back(acc);
      }
    }
    return feats;
  }

  // Backward of Features: dfeats -> filter grads + dX.
  void FeaturesBackward(const std::vector<double>& dfeats, const Matrix& x,
                        std::size_t b, Matrix* dx) {
    const std::size_t L = config_.max_len;
    const std::size_t d = config_.hidden_dim;
    std::size_t idx = 0;
    for (std::size_t hi = 0; hi < heights_.size(); ++hi) {
      const std::size_t h = heights_[hi];
      for (std::size_t f = 0; f < num_h_; ++f) {
        double g = dfeats[idx++];
        if (cached_hact_[b][hi][f] <= 0.0) continue;  // ReLU gate
        const std::size_t t = cached_argmax_[b][hi][f];
        double* wg = h_filters_[hi].grad.RowPtr(f);
        const double* wf = h_filters_[hi].value.RowPtr(f);
        for (std::size_t r = 0; r < h; ++r) {
          const double* xr = x.RowPtr(t + r);
          double* dxr = dx->RowPtr(t + r);
          for (std::size_t c = 0; c < d; ++c) {
            wg[r * d + c] += g * xr[c];
            dxr[c] += g * wf[r * d + c];
          }
        }
      }
    }
    for (std::size_t f = 0; f < num_v_; ++f) {
      const double* wf = v_filter_.value.RowPtr(f);
      double* wg = v_filter_.grad.RowPtr(f);
      for (std::size_t c = 0; c < d; ++c) {
        const double g = dfeats[idx++];
        for (std::size_t t = 0; t < L; ++t) {
          wg[t] += g * x(t, c);
          dx->RowPtr(t)[c] += g * wf[t];
        }
      }
    }
  }

  // Full forward to user representations (batch, d).
  Matrix ForwardReps(const data::Batch& batch) {
    const std::size_t B = batch.batch_size;
    cached_x_.assign(B, Matrix());
    cached_items_.assign(B, {});
    cached_argmax_.assign(B, {});
    cached_hact_.assign(B, {});
    Matrix feats(B, FeatureDim());
    for (std::size_t b = 0; b < B; ++b) {
      cached_x_[b] = SequenceImage(batch, b, &cached_items_[b]);
      feats.SetRow(b, Features(cached_x_[b], b));
    }
    return fc_relu_.Forward(fc_->Forward(feats));
  }

  void BackwardReps(const Matrix& dreps) {
    const Matrix dfeats = fc_->Backward(fc_relu_.Backward(dreps));
    for (std::size_t b = 0; b < dfeats.rows(); ++b) {
      Matrix dx(config_.max_len, config_.hidden_dim);
      FeaturesBackward(dfeats.Row(b), cached_x_[b], b, &dx);
      // Scatter dx rows back into the embedding table (left padding offset).
      const std::size_t offset = config_.max_len - cached_items_[b].size();
      for (std::size_t k = 0; k < cached_items_[b].size(); ++k) {
        double* g = emb_.grad.RowPtr(cached_items_[b][k]);
        const double* src = dx.RowPtr(offset + k);
        for (std::size_t c = 0; c < config_.hidden_dim; ++c) g[c] += src[c];
      }
    }
  }

  // One CE step: predict each sequence's final target.
  double TrainStep(const data::Batch& batch) {
    const Matrix reps = ForwardReps(batch);
    std::vector<std::size_t> targets(batch.batch_size, 0);
    std::vector<double> weights(batch.batch_size, 0.0);
    for (std::size_t b = 0; b < batch.batch_size; ++b) {
      const std::size_t flat = batch.Flat(b, batch.last_position[b]);
      if (batch.target_weights[flat] != 0.0) {
        targets[b] = batch.targets[flat];
        weights[b] = 1.0;
      }
    }
    Matrix dreps;
    const double loss = nn::StreamingSoftmaxCrossEntropy(
        reps, out_emb_.value, targets, weights, &dreps, &out_emb_.grad);
    BackwardReps(dreps);
    return loss;
  }

  SasRecConfig config_;
  std::size_t num_items_;
  std::size_t num_h_;  // horizontal filters per height
  std::size_t num_v_;  // vertical filters
  std::vector<std::size_t> heights_ = {2, 3, 4};
  linalg::Rng rng_;

  nn::Parameter emb_;      // (N, d) input embeddings
  nn::Parameter out_emb_;  // (N, d) output embeddings
  // Horizontal filter bank: one parameter per height, shape (num_h, h*d).
  std::vector<nn::Parameter> h_filters_;
  nn::Parameter v_filter_;  // (num_v, L)
  std::unique_ptr<nn::Linear> fc_;
  nn::ReLU fc_relu_;
  TrainResult result_;

  // Forward caches.
  std::vector<Matrix> cached_x_;                        // per sequence (L, d)
  std::vector<std::vector<std::size_t>> cached_items_;  // gathered item ids
  // argmax positions: [seq][height][filter] and pre-ReLU activations.
  std::vector<std::vector<std::vector<std::size_t>>> cached_argmax_;
  std::vector<std::vector<std::vector<double>>> cached_hact_;
};

}  // namespace

std::unique_ptr<TrainableRecommender> MakeFpmc(const data::Dataset& dataset,
                                               std::size_t dim) {
  return std::make_unique<FpmcRecommender>(dataset, dim, /*seed=*/17);
}

std::unique_ptr<TrainableRecommender> MakeCaser(const data::Dataset& dataset,
                                                const SasRecConfig& config) {
  return std::make_unique<CaserRecommender>(dataset, config,
                                            /*nh=*/4, /*nv=*/2);
}

}  // namespace seqrec
}  // namespace whitenrec
