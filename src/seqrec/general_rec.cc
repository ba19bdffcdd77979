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

namespace {

enum class Kind { kGrcn, kBm3 };

class GeneralRecommender final : public TrainableRecommender {
 public:
  GeneralRecommender(Kind kind, const data::Dataset& dataset, std::size_t d,
                     std::uint64_t seed)
      : kind_(kind),
        dim_(d),
        rng_(seed),
        num_users_(dataset.sequences.size()),
        num_items_(dataset.num_items),
        user_table_("gen.user", rng_.GaussianMatrix(num_users_, d, 0.05)),
        raw_text_(dataset.text_embeddings) {
    enc_id_ = std::make_unique<IdEncoder>(num_items_, d, &rng_, "gen.id");
    enc_text_ = std::make_unique<TextFeatureEncoder>(
        dataset.text_embeddings, d, HeadKind::kMlp1, &rng_, "gen.text");
  }

  std::string name() const override {
    return kind_ == Kind::kGrcn ? "GRCN(T+ID)" : "BM3(T+ID)";
  }
  std::size_t num_items() const override { return num_items_; }

  // Users are the batch's rows of the user table, plus GRCN's propagated
  // neighbourhood once Fit has built the graph; items are the summed ID and
  // text tables.
  bool ScoreFactors(const data::Batch& batch, Matrix* users,
                    Matrix* items) override {
    *items = ItemsForward(/*train=*/false);
    const bool propagate = kind_ == Kind::kGrcn && !user_items_.empty();
    if (propagate) RefreshPropagation(*items);
    users->Resize(batch.batch_size, dim_);
    for (std::size_t b = 0; b < batch.batch_size; ++b) {
      const std::size_t u = batch.users[b];
      WR_CHECK_LT(u, num_users_);
      double* row = users->RowPtr(b);
      std::copy_n(user_table_.value.RowPtr(u), dim_, row);
      if (propagate) {
        const double* prop = propagated_.RowPtr(u);
        for (std::size_t c = 0; c < dim_; ++c) row[c] += prop[c];
      }
    }
    return true;
  }

  std::vector<nn::Parameter*> Parameters() override {
    std::vector<nn::Parameter*> params;
    params.push_back(&user_table_);
    enc_id_->CollectParameters(&params);
    enc_text_->CollectParameters(&params);
    return params;
  }

  const TrainResult& Fit(const data::Split& split,
                         const TrainConfig& config) override {
    user_items_.assign(num_users_, {});
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    for (std::size_t u = 0; u < split.train.size() && u < num_users_; ++u) {
      for (std::size_t item : split.train[u]) {
        user_items_[u].push_back(item);
        pairs.emplace_back(u, item);
      }
    }
    if (kind_ == Kind::kGrcn) BuildEdgeWeights();
    // Each epoch reshuffles the previous epoch's order of the pairs.
    std::vector<std::size_t> order(pairs.size());
    std::iota(order.begin(), order.end(), 0);

    TrainTask task;
    task.recommender = this;
    task.max_len = 8;  // scores read only the user id
    task.params = Parameters();
    task.rngs = {{"model", &rng_}};
    task.sample_order = &order;
    task.run_epoch = [&](nn::Adam* optimizer) {
      Matrix users_eff;
      if (kind_ == Kind::kGrcn) {
        const Matrix v = ItemsForward(/*train=*/false);
        RefreshPropagation(v);
        users_eff = EffectiveUsers();
      }
      return ShuffledPass(
          pairs, &order, &rng_, config.batch_size, optimizer,
          [&](const std::vector<std::pair<std::size_t, std::size_t>>& batch) {
            return kind_ == Kind::kGrcn ? GrcnStep(batch, users_eff)
                                        : Bm3Step(batch);
          });
    };
    result_ = TrainRecommender(task, split, config);
    return result_;
  }

 private:
  Matrix ItemsForward(bool train) {
    Matrix v = enc_id_->Forward(train);
    v += enc_text_->Forward(train);
    return v;
  }

  void ItemsBackward(const Matrix& dv) {
    enc_id_->Backward(dv);
    enc_text_->Backward(dv);
  }

  // GRCN: text-based edge confidences per user, lowest 20% pruned.
  void BuildEdgeWeights() {
    edge_weights_.assign(num_users_, {});
    std::vector<double> profile(raw_text_.cols());
    for (std::size_t u = 0; u < num_users_; ++u) {
      const std::vector<std::size_t>& items = user_items_[u];
      if (items.empty()) continue;
      std::fill(profile.begin(), profile.end(), 0.0);
      for (std::size_t i : items) {
        const double* row = raw_text_.RowPtr(i);
        for (std::size_t c = 0; c < raw_text_.cols(); ++c) {
          profile[c] += row[c];
        }
      }
      for (double& p : profile) p /= static_cast<double>(items.size());
      std::vector<double>& weights = edge_weights_[u];
      weights.resize(items.size());
      for (std::size_t e = 0; e < items.size(); ++e) {
        const double cosine = linalg::CosineSimilarity(
            profile, raw_text_.Row(items[e]));
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
    propagated_ = Matrix(num_users_, dim_);
    for (std::size_t u = 0; u < num_users_; ++u) {
      const std::vector<std::size_t>& items = user_items_[u];
      if (items.empty()) continue;
      double total = 0.0;
      double* prow = propagated_.RowPtr(u);
      for (std::size_t e = 0; e < items.size(); ++e) {
        const double w = edge_weights_[u][e];
        if (w == 0.0) continue;
        total += w;
        const double* vrow = v.RowPtr(items[e]);
        for (std::size_t c = 0; c < dim_; ++c) prow[c] += w * vrow[c];
      }
      if (total > 0.0) {
        for (std::size_t c = 0; c < dim_; ++c) prow[c] /= total;
      }
    }
  }

  Matrix EffectiveUsers() {
    if (kind_ == Kind::kGrcn && propagated_.rows() == num_users_) {
      Matrix u = user_table_.value;
      u += propagated_;
      return u;
    }
    return user_table_.value;
  }

  double GrcnStep(const std::vector<std::pair<std::size_t, std::size_t>>& batch,
                  const Matrix& users_eff) {
    Matrix v = ItemsForward(/*train=*/true);
    std::vector<double> pos_scores(batch.size());
    std::vector<double> neg_scores(batch.size());
    std::vector<std::size_t> negatives(batch.size());
    for (std::size_t b = 0; b < batch.size(); ++b) {
      const auto [u, pos] = batch[b];
      std::size_t neg = rng_.UniformInt(num_items_);
      while (neg == pos) neg = rng_.UniformInt(num_items_);
      negatives[b] = neg;
      pos_scores[b] = linalg::Dot(users_eff.Row(u), v.Row(pos));
      neg_scores[b] = linalg::Dot(users_eff.Row(u), v.Row(neg));
    }
    std::vector<double> dpos, dneg;
    const double loss = nn::BprLoss(pos_scores, neg_scores, &dpos, &dneg);
    Matrix dv(num_items_, dim_);
    for (std::size_t b = 0; b < batch.size(); ++b) {
      const auto [u, pos] = batch[b];
      const std::size_t neg = negatives[b];
      double* du = user_table_.grad.RowPtr(u);
      const double* urow = users_eff.RowPtr(u);
      const double* vpos = v.RowPtr(pos);
      const double* vneg = v.RowPtr(neg);
      double* dvpos = dv.RowPtr(pos);
      double* dvneg = dv.RowPtr(neg);
      for (std::size_t c = 0; c < dim_; ++c) {
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
    Matrix v_id = enc_id_->Forward(/*train=*/true);
    Matrix v_text = enc_text_->Forward(/*train=*/true);
    Matrix v = v_id;
    v += v_text;

    // Recommendation term: InfoNCE between users and their positive items
    // (in-batch negatives).
    Matrix zu(batch.size(), dim_);
    Matrix zi(batch.size(), dim_);
    for (std::size_t b = 0; b < batch.size(); ++b) {
      zu.SetRow(b, user_table_.value.Row(batch[b].first));
      zi.SetRow(b, v.Row(batch[b].second));
    }
    Matrix dzu, dzi;
    const double rec_loss = nn::InfoNce(zu, zi, /*temperature=*/0.2, &dzu, &dzi);

    // Modal term: InfoNCE between the ID view and the text view of the
    // batch's items.
    Matrix mid(batch.size(), dim_);
    Matrix mtext(batch.size(), dim_);
    for (std::size_t b = 0; b < batch.size(); ++b) {
      mid.SetRow(b, v_id.Row(batch[b].second));
      mtext.SetRow(b, v_text.Row(batch[b].second));
    }
    Matrix dmid, dmtext;
    const double modal_loss =
        nn::InfoNce(mid, mtext, /*temperature=*/0.2, &dmid, &dmtext);

    Matrix dv_id(num_items_, dim_);
    Matrix dv_text(num_items_, dim_);
    for (std::size_t b = 0; b < batch.size(); ++b) {
      const auto [u, item] = batch[b];
      double* du = user_table_.grad.RowPtr(u);
      for (std::size_t c = 0; c < dim_; ++c) {
        du[c] += dzu(b, c);
        // dzi flows to both views (v = v_id + v_text).
        dv_id(item, c) += dzi(b, c) + dmid(b, c);
        dv_text(item, c) += dzi(b, c) + dmtext(b, c);
      }
    }
    enc_id_->Backward(dv_id);
    enc_text_->Backward(dv_text);
    return rec_loss + modal_loss;
  }

  Kind kind_;
  std::size_t dim_;
  linalg::Rng rng_;
  std::size_t num_users_;
  std::size_t num_items_;

  nn::Parameter user_table_;
  std::unique_ptr<IdEncoder> enc_id_;
  std::unique_ptr<TextFeatureEncoder> enc_text_;
  Matrix raw_text_;  // frozen, for GRCN edge confidences

  // Per-user training item lists.
  std::vector<std::vector<std::size_t>> user_items_;

  // GRCN propagation state, refreshed per epoch and before scoring.
  Matrix propagated_;  // (num_users, dim)
  std::vector<std::vector<double>> edge_weights_;

  TrainResult result_;
};

}  // namespace

std::unique_ptr<TrainableRecommender> MakeGrcn(const data::Dataset& dataset,
                                               std::size_t dim,
                                               std::uint64_t seed) {
  return std::make_unique<GeneralRecommender>(Kind::kGrcn, dataset, dim, seed);
}

std::unique_ptr<TrainableRecommender> MakeBm3(const data::Dataset& dataset,
                                              std::size_t dim,
                                              std::uint64_t seed) {
  return std::make_unique<GeneralRecommender>(Kind::kBm3, dataset, dim, seed);
}

}  // namespace seqrec
}  // namespace whitenrec
