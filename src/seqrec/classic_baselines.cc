#include "seqrec/classic_baselines.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

#include "linalg/gemm.h"
#include "nn/loss.h"
#include "nn/tensor.h"

namespace whitenrec {
namespace seqrec {

using linalg::Matrix;

// ---------------------------------------------------------------------------
// FPMC
// ---------------------------------------------------------------------------

struct FpmcRecommender::Impl {
  std::size_t dim;
  std::size_t num_users;
  std::size_t num_items;
  linalg::Rng rng;
  nn::Parameter user_ui;  // (n_u, d)
  nn::Parameter item_iu;  // (N, d)
  nn::Parameter item_il;  // (N, d) previous-item factors
  nn::Parameter item_li;  // (N, d) next-item factors
  TrainResult result;

  Impl(const data::Dataset& dataset, std::size_t d, std::uint64_t seed)
      : dim(d),
        num_users(dataset.sequences.size()),
        num_items(dataset.num_items),
        rng(seed),
        user_ui("fpmc.user", rng.GaussianMatrix(num_users, d, 0.05)),
        item_iu("fpmc.iu", rng.GaussianMatrix(dataset.num_items, d, 0.05)),
        item_il("fpmc.il", rng.GaussianMatrix(dataset.num_items, d, 0.05)),
        item_li("fpmc.li", rng.GaussianMatrix(dataset.num_items, d, 0.05)) {}

  std::vector<nn::Parameter*> Parameters() {
    return {&user_ui, &item_iu, &item_il, &item_li};
  }

  double Score(std::size_t user, std::size_t prev, std::size_t item) const {
    return linalg::Dot(user_ui.value.Row(user), item_iu.value.Row(item)) +
           linalg::Dot(item_il.value.Row(prev), item_li.value.Row(item));
  }

  // BPR step over (user, prev, pos) triples with one sampled negative each.
  double Step(const std::vector<std::array<std::size_t, 3>>& triples) {
    std::vector<double> pos_scores(triples.size());
    std::vector<double> neg_scores(triples.size());
    std::vector<std::size_t> negatives(triples.size());
    for (std::size_t b = 0; b < triples.size(); ++b) {
      const auto [u, prev, pos] = triples[b];
      std::size_t neg = rng.UniformInt(num_items);
      while (neg == pos) neg = rng.UniformInt(num_items);
      negatives[b] = neg;
      pos_scores[b] = Score(u, prev, pos);
      neg_scores[b] = Score(u, prev, neg);
    }
    std::vector<double> dpos, dneg;
    const double loss = nn::BprLoss(pos_scores, neg_scores, &dpos, &dneg);
    for (std::size_t b = 0; b < triples.size(); ++b) {
      const auto [u, prev, pos] = triples[b];
      const std::size_t neg = negatives[b];
      for (std::size_t c = 0; c < dim; ++c) {
        const double uu = user_ui.value(u, c);
        const double il = item_il.value(prev, c);
        // d score / d factors, weighted by the BPR gradients.
        user_ui.grad(u, c) += dpos[b] * item_iu.value(pos, c) +
                              dneg[b] * item_iu.value(neg, c);
        item_iu.grad(pos, c) += dpos[b] * uu;
        item_iu.grad(neg, c) += dneg[b] * uu;
        item_il.grad(prev, c) += dpos[b] * item_li.value(pos, c) +
                                 dneg[b] * item_li.value(neg, c);
        item_li.grad(pos, c) += dpos[b] * il;
        item_li.grad(neg, c) += dneg[b] * il;
      }
    }
    return loss;
  }
};

FpmcRecommender::FpmcRecommender(const data::Dataset& dataset, std::size_t dim,
                                 std::uint64_t seed)
    : impl_(std::make_unique<Impl>(dataset, dim, seed)) {}
FpmcRecommender::~FpmcRecommender() = default;

std::size_t FpmcRecommender::num_items() const { return impl_->num_items; }

Matrix FpmcRecommender::ScoreLastPositions(const data::Batch& batch) {
  // FPMC's score is a sum of two inner products, not a single factored
  // users*items^T, so it stays on the materialized reference path.
  // whitenrec-lint: allow(full-logits)
  Matrix scores(batch.batch_size, impl_->num_items);
  for (std::size_t b = 0; b < batch.batch_size; ++b) {
    const std::size_t user = batch.users[b];
    const std::size_t prev = batch.items[batch.Flat(b, batch.last_position[b])];
    WR_CHECK_LT(user, impl_->num_users);
    // s = U_u Iu^T + Il_prev Li^T, vectorized over the catalog.
    const std::vector<double> ui =
        linalg::MatVec(impl_->item_iu.value, impl_->user_ui.value.Row(user));
    const std::vector<double> li =
        linalg::MatVec(impl_->item_li.value, impl_->item_il.value.Row(prev));
    double* row = scores.RowPtr(b);
    for (std::size_t i = 0; i < impl_->num_items; ++i) row[i] = ui[i] + li[i];
  }
  return scores;
}

std::size_t FpmcRecommender::NumParameters() {
  std::size_t n = 0;
  for (nn::Parameter* p : impl_->Parameters()) n += p->NumElements();
  return n;
}

const TrainResult& FpmcRecommender::Fit(const data::Split& split,
                                        const TrainConfig& config) {
  Impl& im = *impl_;
  std::vector<std::array<std::size_t, 3>> triples;
  for (std::size_t u = 0; u < split.train.size() && u < im.num_users; ++u) {
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
  task.params = im.Parameters();
  task.rngs = {{"model", &im.rng}};
  task.sample_order = &order;
  task.run_epoch = [&](nn::Adam* optimizer) {
    return ShuffledPass(
        triples, &order, &im.rng, config.batch_size, optimizer,
        [&im](const std::vector<std::array<std::size_t, 3>>& batch) {
          return im.Step(batch);
        });
  };
  im.result = TrainRecommender(task, split, config);
  return im.result;
}

std::unique_ptr<FpmcRecommender> MakeFpmc(const data::Dataset& dataset,
                                          std::size_t dim) {
  return std::make_unique<FpmcRecommender>(dataset, dim);
}

// ---------------------------------------------------------------------------
// Caser
// ---------------------------------------------------------------------------

struct CaserRecommender::Impl {
  SasRecConfig config;
  std::size_t num_items;
  std::size_t num_h;  // horizontal filters per height
  std::size_t num_v;  // vertical filters
  std::vector<std::size_t> heights = {2, 3, 4};
  linalg::Rng rng;

  nn::Parameter emb;       // (N, d) input embeddings
  nn::Parameter out_emb;   // (N, d) output embeddings
  // Horizontal filter bank: one parameter per height, shape (num_h, h*d).
  std::vector<nn::Parameter> h_filters;
  nn::Parameter v_filter;  // (num_v, L)
  std::unique_ptr<nn::Linear> fc;
  std::unique_ptr<nn::ReLU> fc_relu;
  TrainResult result;

  // Forward caches.
  std::vector<Matrix> cached_x;                   // per sequence (L, d)
  std::vector<std::vector<std::size_t>> cached_items;  // gathered item ids
  // argmax positions: [seq][height][filter] and pre-ReLU activations.
  std::vector<std::vector<std::vector<std::size_t>>> cached_argmax;
  std::vector<std::vector<std::vector<double>>> cached_hact;

  Impl(const data::Dataset& dataset, const SasRecConfig& cfg, std::size_t nh,
       std::size_t nv)
      : config(cfg),
        num_items(dataset.num_items),
        num_h(nh),
        num_v(nv),
        rng(cfg.seed),
        emb("caser.emb", rng.GaussianMatrix(dataset.num_items, cfg.hidden_dim,
                                            0.02)),
        out_emb("caser.out",
                rng.GaussianMatrix(dataset.num_items, cfg.hidden_dim, 0.02)),
        v_filter("caser.v", rng.GaussianMatrix(nv, cfg.max_len, 0.1)) {
    for (std::size_t h : heights) {
      h_filters.emplace_back(
          "caser.h" + std::to_string(h),
          rng.GaussianMatrix(num_h, h * cfg.hidden_dim, 0.1));
    }
    const std::size_t feat_dim = FeatureDim();
    fc = std::make_unique<nn::Linear>(feat_dim, cfg.hidden_dim, &rng,
                                      "caser.fc");
    fc_relu = std::make_unique<nn::ReLU>();
  }

  std::size_t FeatureDim() const {
    return heights.size() * num_h + num_v * config.hidden_dim;
  }

  std::vector<nn::Parameter*> Parameters() {
    std::vector<nn::Parameter*> params = {&emb, &out_emb, &v_filter};
    for (nn::Parameter& p : h_filters) params.push_back(&p);
    fc->CollectParameters(&params);
    return params;
  }

  // Builds the (L, d) left-padded embedding image of sequence b.
  Matrix SequenceImage(const data::Batch& batch, std::size_t b,
                       std::vector<std::size_t>* items_out) {
    const std::size_t L = config.max_len;
    const std::size_t d = config.hidden_dim;
    Matrix x(L, d);
    std::vector<std::size_t> items;
    for (std::size_t t = 0; t <= batch.last_position[b]; ++t) {
      const std::size_t flat = batch.Flat(b, t);
      if (batch.input_mask[flat] != 0.0) items.push_back(batch.items[flat]);
    }
    const std::size_t offset = L - items.size();
    for (std::size_t k = 0; k < items.size(); ++k) {
      x.SetRow(offset + k, emb.value.Row(items[k]));
    }
    *items_out = std::move(items);
    return x;
  }

  // Convolutional features of one image; fills per-sequence caches.
  std::vector<double> Features(const Matrix& x, std::size_t b) {
    const std::size_t L = config.max_len;
    const std::size_t d = config.hidden_dim;
    std::vector<double> feats;
    feats.reserve(FeatureDim());
    cached_argmax[b].assign(heights.size(), {});
    cached_hact[b].assign(heights.size(), {});
    for (std::size_t hi = 0; hi < heights.size(); ++hi) {
      const std::size_t h = heights[hi];
      const Matrix& w = h_filters[hi].value;
      cached_argmax[b][hi].assign(num_h, 0);
      cached_hact[b][hi].assign(num_h, 0.0);
      for (std::size_t f = 0; f < num_h; ++f) {
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
        cached_argmax[b][hi][f] = best_t;
        cached_hact[b][hi][f] = best;
        feats.push_back(std::max(best, 0.0));  // ReLU after max-pool
      }
    }
    // Vertical filters: weighted sums over time per dimension.
    for (std::size_t f = 0; f < num_v; ++f) {
      const double* wf = v_filter.value.RowPtr(f);
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
    const std::size_t L = config.max_len;
    const std::size_t d = config.hidden_dim;
    std::size_t idx = 0;
    for (std::size_t hi = 0; hi < heights.size(); ++hi) {
      const std::size_t h = heights[hi];
      for (std::size_t f = 0; f < num_h; ++f) {
        double g = dfeats[idx++];
        if (cached_hact[b][hi][f] <= 0.0) continue;  // ReLU gate
        const std::size_t t = cached_argmax[b][hi][f];
        double* wg = h_filters[hi].grad.RowPtr(f);
        const double* wf = h_filters[hi].value.RowPtr(f);
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
    for (std::size_t f = 0; f < num_v; ++f) {
      const double* wf = v_filter.value.RowPtr(f);
      double* wg = v_filter.grad.RowPtr(f);
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
    cached_x.assign(B, Matrix());
    cached_items.assign(B, {});
    cached_argmax.assign(B, {});
    cached_hact.assign(B, {});
    Matrix feats(B, FeatureDim());
    for (std::size_t b = 0; b < B; ++b) {
      cached_x[b] = SequenceImage(batch, b, &cached_items[b]);
      feats.SetRow(b, Features(cached_x[b], b));
    }
    return fc_relu->Forward(fc->Forward(feats));
  }

  void BackwardReps(const Matrix& dreps) {
    const Matrix dfeats = fc->Backward(fc_relu->Backward(dreps));
    for (std::size_t b = 0; b < dfeats.rows(); ++b) {
      Matrix dx(config.max_len, config.hidden_dim);
      FeaturesBackward(dfeats.Row(b), cached_x[b], b, &dx);
      // Scatter dx rows back into the embedding table (left padding offset).
      const std::size_t offset = config.max_len - cached_items[b].size();
      for (std::size_t k = 0; k < cached_items[b].size(); ++k) {
        double* g = emb.grad.RowPtr(cached_items[b][k]);
        const double* src = dx.RowPtr(offset + k);
        for (std::size_t c = 0; c < config.hidden_dim; ++c) g[c] += src[c];
      }
    }
  }

  // One CE step: predict each sequence's final target.
  double TrainStep(const data::Batch& batch) {
    const Matrix reps = ForwardReps(batch);
    const Matrix logits = linalg::MatMulTransB(reps, out_emb.value);
    std::vector<std::size_t> targets(batch.batch_size, 0);
    std::vector<double> weights(batch.batch_size, 0.0);
    for (std::size_t b = 0; b < batch.batch_size; ++b) {
      const std::size_t flat = batch.Flat(b, batch.last_position[b]);
      if (batch.target_weights[flat] != 0.0) {
        targets[b] = batch.targets[flat];
        weights[b] = 1.0;
      }
    }
    Matrix dlogits;
    const double loss =
        nn::SoftmaxCrossEntropy(logits, targets, weights, &dlogits);
    const Matrix dreps = linalg::MatMul(dlogits, out_emb.value);
    linalg::MatMulTransAAcc(dlogits, reps, &out_emb.grad);
    BackwardReps(dreps);
    return loss;
  }

  Matrix Score(const data::Batch& batch) {
    const Matrix reps = ForwardReps(batch);
    return linalg::MatMulTransB(reps, out_emb.value);
  }
};

CaserRecommender::CaserRecommender(const data::Dataset& dataset,
                                   const SasRecConfig& config,
                                   std::size_t horizontal_filters,
                                   std::size_t vertical_filters)
    : impl_(std::make_unique<Impl>(dataset, config, horizontal_filters,
                                   vertical_filters)) {}
CaserRecommender::~CaserRecommender() = default;

std::size_t CaserRecommender::num_items() const { return impl_->num_items; }

Matrix CaserRecommender::ScoreLastPositions(const data::Batch& batch) {
  return impl_->Score(batch);
}

std::size_t CaserRecommender::NumParameters() {
  std::size_t n = 0;
  for (nn::Parameter* p : impl_->Parameters()) n += p->NumElements();
  return n;
}

const TrainResult& CaserRecommender::Fit(const data::Split& split,
                                         const TrainConfig& config) {
  Impl& im = *impl_;
  linalg::Rng shuffle_rng(config.seed);
  TrainTask task;
  task.recommender = this;
  task.max_len = im.config.max_len;
  task.params = im.Parameters();
  task.rngs = {{"shuffle", &shuffle_rng}};  // Caser has no dropout
  task.run_epoch = WindowEpoch(
      split, im.config.max_len, config.batch_size, &shuffle_rng,
      [&im](const data::Batch& batch) { return im.TrainStep(batch); });
  im.result = TrainRecommender(task, split, config);
  return im.result;
}

std::unique_ptr<CaserRecommender> MakeCaser(const data::Dataset& dataset,
                                            const SasRecConfig& config) {
  return std::make_unique<CaserRecommender>(dataset, config);
}

}  // namespace seqrec
}  // namespace whitenrec
