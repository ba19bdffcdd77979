#include "seqrec/general_rec.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "whitening/whiten_encoder.h"
#include "linalg/stats.h"
#include "nn/loss.h"
#include "nn/tensor.h"
#include "seqrec/item_encoder.h"

namespace whitenrec {
namespace seqrec {

using linalg::Matrix;

struct GeneralRecommender::Impl {
  Kind kind;
  std::size_t dim;
  linalg::Rng rng;
  std::size_t num_users;
  std::size_t num_items;

  nn::Parameter user_table;
  std::unique_ptr<IdEncoder> enc_id;
  std::unique_ptr<TextFeatureEncoder> enc_text;
  Matrix raw_text;  // frozen, for GRCN edge confidences

  // Per-user training item lists.
  std::vector<std::vector<std::size_t>> user_items;

  // GRCN propagation state, refreshed per epoch and before scoring.
  Matrix propagated;  // (num_users, dim)
  std::vector<std::vector<double>> edge_weights;

  TrainResult result;

  Impl(Kind k, const data::Dataset& dataset, std::size_t d, std::uint64_t seed)
      : kind(k),
        dim(d),
        rng(seed),
        num_users(dataset.sequences.size()),
        num_items(dataset.num_items),
        user_table("gen.user", rng.GaussianMatrix(num_users, d, 0.05)),
        raw_text(dataset.text_embeddings) {
    enc_id = std::make_unique<IdEncoder>(num_items, d, &rng, "gen.id");
    enc_text = std::make_unique<TextFeatureEncoder>(
        dataset.text_embeddings, d, HeadKind::kMlp1, &rng, "gen.text");
  }

  std::vector<nn::Parameter*> Parameters() {
    std::vector<nn::Parameter*> params;
    params.push_back(&user_table);
    enc_id->CollectParameters(&params);
    enc_text->CollectParameters(&params);
    return params;
  }

  Matrix ItemsForward(bool train) {
    Matrix v = enc_id->Forward(train);
    v += enc_text->Forward(train);
    return v;
  }

  void ItemsBackward(const Matrix& dv) {
    enc_id->Backward(dv);
    enc_text->Backward(dv);
  }

  // GRCN: text-based edge confidences per user, lowest 20% pruned.
  void BuildEdgeWeights() {
    edge_weights.assign(num_users, {});
    std::vector<double> profile(raw_text.cols());
    for (std::size_t u = 0; u < num_users; ++u) {
      const std::vector<std::size_t>& items = user_items[u];
      if (items.empty()) continue;
      std::fill(profile.begin(), profile.end(), 0.0);
      for (std::size_t i : items) {
        const double* row = raw_text.RowPtr(i);
        for (std::size_t c = 0; c < raw_text.cols(); ++c) profile[c] += row[c];
      }
      for (double& p : profile) p /= static_cast<double>(items.size());
      std::vector<double>& weights = edge_weights[u];
      weights.resize(items.size());
      for (std::size_t e = 0; e < items.size(); ++e) {
        const double cosine = linalg::CosineSimilarity(
            profile, raw_text.Row(items[e]));
        weights[e] = 1.0 / (1.0 + std::exp(-4.0 * cosine));
      }
      // Prune the lowest-confidence 20% of edges.
      std::vector<double> sorted = weights;
      std::sort(sorted.begin(), sorted.end());
      const double cutoff = sorted[sorted.size() / 5];
      for (double& w : weights) {
        if (w < cutoff) w = 0.0;
      }
    }
  }

  void RefreshPropagation(const Matrix& v) {
    propagated = Matrix(num_users, dim);
    for (std::size_t u = 0; u < num_users; ++u) {
      const std::vector<std::size_t>& items = user_items[u];
      if (items.empty()) continue;
      double total = 0.0;
      double* prow = propagated.RowPtr(u);
      for (std::size_t e = 0; e < items.size(); ++e) {
        const double w = edge_weights[u][e];
        if (w == 0.0) continue;
        total += w;
        const double* vrow = v.RowPtr(items[e]);
        for (std::size_t c = 0; c < dim; ++c) prow[c] += w * vrow[c];
      }
      if (total > 0.0) {
        for (std::size_t c = 0; c < dim; ++c) prow[c] /= total;
      }
    }
  }

  Matrix EffectiveUsers() {
    if (kind == Kind::kGrcn && propagated.rows() == num_users) {
      Matrix u = user_table.value;
      u += propagated;
      return u;
    }
    return user_table.value;
  }

  double GrcnStep(const std::vector<std::pair<std::size_t, std::size_t>>& batch,
                  const Matrix& users_eff) {
    Matrix v = ItemsForward(/*train=*/true);
    std::vector<double> pos_scores(batch.size());
    std::vector<double> neg_scores(batch.size());
    std::vector<std::size_t> negatives(batch.size());
    for (std::size_t b = 0; b < batch.size(); ++b) {
      const auto [u, pos] = batch[b];
      std::size_t neg = rng.UniformInt(num_items);
      while (neg == pos) neg = rng.UniformInt(num_items);
      negatives[b] = neg;
      pos_scores[b] = linalg::Dot(users_eff.Row(u), v.Row(pos));
      neg_scores[b] = linalg::Dot(users_eff.Row(u), v.Row(neg));
    }
    std::vector<double> dpos, dneg;
    const double loss = nn::BprLoss(pos_scores, neg_scores, &dpos, &dneg);
    Matrix dv(num_items, dim);
    for (std::size_t b = 0; b < batch.size(); ++b) {
      const auto [u, pos] = batch[b];
      const std::size_t neg = negatives[b];
      double* du = user_table.grad.RowPtr(u);
      const double* urow = users_eff.RowPtr(u);
      const double* vpos = v.RowPtr(pos);
      const double* vneg = v.RowPtr(neg);
      double* dvpos = dv.RowPtr(pos);
      double* dvneg = dv.RowPtr(neg);
      for (std::size_t c = 0; c < dim; ++c) {
        du[c] += dpos[b] * vpos[c] + dneg[b] * vneg[c];
        dvpos[c] += dpos[b] * urow[c];
        dvneg[c] += dneg[b] * urow[c];
      }
    }
    ItemsBackward(dv);
    return loss;
  }

  double Bm3Step(const std::vector<std::pair<std::size_t, std::size_t>>& batch) {
    // Separate views for the modal-alignment term.
    Matrix v_id = enc_id->Forward(/*train=*/true);
    Matrix v_text = enc_text->Forward(/*train=*/true);
    Matrix v = v_id;
    v += v_text;

    // Recommendation term: InfoNCE between users and their positive items
    // (in-batch negatives).
    Matrix zu(batch.size(), dim);
    Matrix zi(batch.size(), dim);
    for (std::size_t b = 0; b < batch.size(); ++b) {
      zu.SetRow(b, user_table.value.Row(batch[b].first));
      zi.SetRow(b, v.Row(batch[b].second));
    }
    Matrix dzu, dzi;
    const double rec_loss = nn::InfoNce(zu, zi, /*temperature=*/0.2, &dzu, &dzi);

    // Modal term: InfoNCE between the ID view and the text view of the
    // batch's items.
    Matrix mid(batch.size(), dim);
    Matrix mtext(batch.size(), dim);
    for (std::size_t b = 0; b < batch.size(); ++b) {
      mid.SetRow(b, v_id.Row(batch[b].second));
      mtext.SetRow(b, v_text.Row(batch[b].second));
    }
    Matrix dmid, dmtext;
    const double modal_loss =
        nn::InfoNce(mid, mtext, /*temperature=*/0.2, &dmid, &dmtext);

    Matrix dv_id(num_items, dim);
    Matrix dv_text(num_items, dim);
    for (std::size_t b = 0; b < batch.size(); ++b) {
      const auto [u, item] = batch[b];
      double* du = user_table.grad.RowPtr(u);
      for (std::size_t c = 0; c < dim; ++c) {
        du[c] += dzu(b, c);
        // dzi flows to both views (v = v_id + v_text).
        dv_id(item, c) += dzi(b, c) + dmid(b, c);
        dv_text(item, c) += dzi(b, c) + dmtext(b, c);
      }
    }
    enc_id->Backward(dv_id);
    enc_text->Backward(dv_text);
    return rec_loss + modal_loss;
  }
};

GeneralRecommender::GeneralRecommender(Kind kind, const data::Dataset& dataset,
                                       std::size_t dim, std::uint64_t seed)
    : impl_(std::make_unique<Impl>(kind, dataset, dim, seed)) {}

GeneralRecommender::~GeneralRecommender() = default;

std::string GeneralRecommender::name() const {
  return impl_->kind == Kind::kGrcn ? "GRCN(T+ID)" : "BM3(T+ID)";
}

std::size_t GeneralRecommender::num_items() const { return impl_->num_items; }

Matrix GeneralRecommender::ScoreLastPositions(const data::Batch& batch) {
  const Matrix v = impl_->ItemsForward(/*train=*/false);
  if (impl_->kind == Kind::kGrcn && !impl_->user_items.empty()) {
    impl_->RefreshPropagation(v);
  }
  const Matrix users = impl_->EffectiveUsers();
  // ScoreLastPositions materializes by contract (trainer.h); the fused
  // evaluation path goes through ScoreFactors instead.
  // whitenrec-lint: allow(full-logits)
  Matrix scores(batch.batch_size, impl_->num_items);
  for (std::size_t b = 0; b < batch.batch_size; ++b) {
    const std::size_t u = batch.users[b];
    WR_CHECK_LT(u, impl_->num_users);
    const std::vector<double> srow =
        linalg::MatVec(v, users.Row(u));
    scores.SetRow(b, srow);
  }
  return scores;
}

std::size_t GeneralRecommender::NumParameters() {
  std::size_t n = 0;
  for (nn::Parameter* p : impl_->Parameters()) n += p->NumElements();
  return n;
}

const TrainResult& GeneralRecommender::Fit(const data::Split& split,
                                           const TrainConfig& config) {
  Impl& im = *impl_;
  im.user_items.assign(im.num_users, {});
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t u = 0; u < split.train.size() && u < im.num_users; ++u) {
    for (std::size_t item : split.train[u]) {
      im.user_items[u].push_back(item);
      pairs.emplace_back(u, item);
    }
  }
  if (im.kind == Kind::kGrcn) im.BuildEdgeWeights();
  // Each epoch reshuffles the previous epoch's order of the pairs.
  std::vector<std::size_t> order(pairs.size());
  std::iota(order.begin(), order.end(), 0);

  TrainTask task;
  task.recommender = this;
  task.max_len = 8;  // scores read only the user id
  task.params = im.Parameters();
  task.rngs = {{"model", &im.rng}};
  task.sample_order = &order;
  task.run_epoch = [&](nn::Adam* optimizer) {
    Matrix users_eff;
    if (im.kind == Kind::kGrcn) {
      const Matrix v = im.ItemsForward(/*train=*/false);
      im.RefreshPropagation(v);
      users_eff = im.EffectiveUsers();
    }
    return ShuffledPass(
        pairs, &order, &im.rng, config.batch_size, optimizer,
        [&](const std::vector<std::pair<std::size_t, std::size_t>>& batch) {
          return im.kind == Kind::kGrcn ? im.GrcnStep(batch, users_eff)
                                        : im.Bm3Step(batch);
        });
  };
  im.result = TrainRecommender(task, split, config);
  return im.result;
}

std::unique_ptr<GeneralRecommender> MakeGrcn(const data::Dataset& dataset,
                                             std::size_t dim,
                                             std::uint64_t seed) {
  return std::make_unique<GeneralRecommender>(GeneralRecommender::Kind::kGrcn,
                                              dataset, dim, seed);
}

std::unique_ptr<GeneralRecommender> MakeBm3(const data::Dataset& dataset,
                                            std::size_t dim,
                                            std::uint64_t seed) {
  return std::make_unique<GeneralRecommender>(GeneralRecommender::Kind::kBm3,
                                              dataset, dim, seed);
}

}  // namespace seqrec
}  // namespace whitenrec
