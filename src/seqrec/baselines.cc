#include "seqrec/baselines.h"

#include <algorithm>
#include <cmath>

#include "whitening/parametric_whitening.h"
#include "linalg/gemm.h"
#include "nn/loss.h"
#include "nn/tensor.h"
#include "seqrec/item_encoder.h"
#include "seqrec/sequence_input.h"

namespace whitenrec {
namespace seqrec {

using linalg::Matrix;

namespace {

std::unique_ptr<ItemEncoder> MakeIdPart(const data::Dataset& dataset,
                                        const SasRecConfig& config,
                                        linalg::Rng* rng) {
  return std::make_unique<IdEncoder>(dataset.num_items, config.hidden_dim, rng);
}

std::unique_ptr<ItemEncoder> WithOptionalId(std::unique_ptr<ItemEncoder> enc,
                                            bool with_id,
                                            const data::Dataset& dataset,
                                            const SasRecConfig& config,
                                            linalg::Rng* rng) {
  if (!with_id) return enc;
  return std::make_unique<SumEncoder>(std::move(enc),
                                      MakeIdPart(dataset, config, rng));
}

}  // namespace

std::unique_ptr<SasRecRecommender> MakeSasRecId(const data::Dataset& dataset,
                                                const SasRecConfig& config) {
  linalg::Rng rng(config.seed);
  return std::make_unique<SasRecRecommender>(
      "SASRec(ID)", MakeIdPart(dataset, config, &rng), config);
}

std::unique_ptr<SasRecRecommender> MakeSasRecText(const data::Dataset& dataset,
                                                  const SasRecConfig& config) {
  linalg::Rng rng(config.seed);
  auto enc = std::make_unique<TextFeatureEncoder>(
      dataset.text_embeddings, config.hidden_dim, HeadKind::kMlp2, &rng);
  return std::make_unique<SasRecRecommender>("SASRec(T)", std::move(enc),
                                             config);
}

std::unique_ptr<SasRecRecommender> MakeSasRecTextId(
    const data::Dataset& dataset, const SasRecConfig& config) {
  linalg::Rng rng(config.seed);
  auto text = std::make_unique<TextFeatureEncoder>(
      dataset.text_embeddings, config.hidden_dim, HeadKind::kMlp2, &rng);
  auto enc = WithOptionalId(std::move(text), true, dataset, config, &rng);
  return std::make_unique<SasRecRecommender>("SASRec(T+ID)", std::move(enc),
                                             config);
}

std::unique_ptr<SasRecRecommender> MakeWhitenRec(
    const data::Dataset& dataset, const SasRecConfig& config,
    const WhitenRecConfig& wconfig, bool with_id) {
  linalg::Rng rng(config.seed);
  WhitenRecConfig wc = wconfig;
  wc.out_dim = config.hidden_dim;
  auto enc_result = MakeWhitenRecEncoder(dataset.text_embeddings, wc, &rng);
  WR_CHECK_MSG(enc_result.ok(), enc_result.status().message().c_str());
  auto enc = WithOptionalId(std::move(enc_result).ValueOrDie(), with_id,
                            dataset, config, &rng);
  return std::make_unique<SasRecRecommender>(
      with_id ? "WhitenRec(T+ID)" : "WhitenRec(T)", std::move(enc), config);
}

std::unique_ptr<SasRecRecommender> MakeWhitenRecPlus(
    const data::Dataset& dataset, const SasRecConfig& config,
    const WhitenRecConfig& wconfig, bool with_id) {
  linalg::Rng rng(config.seed);
  WhitenRecConfig wc = wconfig;
  wc.out_dim = config.hidden_dim;
  auto enc_result = MakeWhitenRecPlusEncoder(dataset.text_embeddings, wc, &rng);
  WR_CHECK_MSG(enc_result.ok(), enc_result.status().message().c_str());
  auto enc = WithOptionalId(std::move(enc_result).ValueOrDie(), with_id,
                            dataset, config, &rng);
  return std::make_unique<SasRecRecommender>(
      with_id ? "WhitenRec+(T+ID)" : "WhitenRec+(T)", std::move(enc), config);
}

std::unique_ptr<SasRecRecommender> MakeUniSRec(const data::Dataset& dataset,
                                               const SasRecConfig& config,
                                               bool with_id) {
  linalg::Rng rng(config.seed);
  auto moe = std::make_unique<MoEPwEncoder>(dataset.text_embeddings,
                                            config.hidden_dim, &rng);
  auto enc = WithOptionalId(std::move(moe), with_id, dataset, config, &rng);
  return std::make_unique<SasRecRecommender>(
      with_id ? "UniSRec(T+ID)" : "UniSRec(T)", std::move(enc), config);
}

// ---------------------------------------------------------------------------
// CL4SRec
// ---------------------------------------------------------------------------

namespace {

// Extracts the valid item list of each sequence in a batch.
std::vector<std::vector<std::size_t>> BatchSequences(const data::Batch& batch) {
  std::vector<std::vector<std::size_t>> out(batch.batch_size);
  for (std::size_t b = 0; b < batch.batch_size; ++b) {
    for (std::size_t t = 0; t <= batch.last_position[b]; ++t) {
      const std::size_t flat = batch.Flat(b, t);
      if (batch.input_mask[flat] != 0.0) out[b].push_back(batch.items[flat]);
    }
  }
  return out;
}

// Builds an inputs-only batch (no targets) from raw sequences.
data::Batch BatchFromSequences(
    const std::vector<std::vector<std::size_t>>& sequences,
    std::size_t max_len) {
  data::Batch batch;
  batch.seq_len = max_len;
  for (std::size_t b = 0; b < sequences.size(); ++b) {
    const std::vector<std::size_t>& seq = sequences[b];
    WR_CHECK(!seq.empty());
    const std::size_t len = std::min(max_len, seq.size());
    const std::size_t start = seq.size() - len;
    for (std::size_t t = 0; t < max_len; ++t) {
      if (t < len) {
        batch.items.push_back(seq[start + t]);
        batch.input_mask.push_back(1.0);
      } else {
        batch.items.push_back(0);
        batch.input_mask.push_back(0.0);
      }
      batch.targets.push_back(0);
      batch.target_weights.push_back(0.0);
    }
    batch.last_position.push_back(len - 1);
    batch.users.push_back(b);
    ++batch.batch_size;
  }
  return batch;
}

// CL4SRec sequence augmentations: crop (contiguous subsequence), mask
// (realized as deletion) and reorder (shuffle a sub-segment). Always leaves
// at least one item.
std::vector<std::size_t> AugmentSequence(const std::vector<std::size_t>& seq,
                                         linalg::Rng* rng) {
  if (seq.size() <= 2) return seq;
  std::vector<std::size_t> out;
  switch (rng->UniformInt(3)) {
    case 0: {  // crop: keep a contiguous 60% window
      const std::size_t len = std::max<std::size_t>(
          1, static_cast<std::size_t>(0.6 * static_cast<double>(seq.size())));
      const std::size_t start = rng->UniformInt(seq.size() - len + 1);
      out.assign(seq.begin() + static_cast<std::ptrdiff_t>(start),
                 seq.begin() + static_cast<std::ptrdiff_t>(start + len));
      break;
    }
    case 1: {  // mask-as-deletion: drop ~30% of items
      for (std::size_t item : seq) {
        if (rng->Uniform() >= 0.3) out.push_back(item);
      }
      if (out.empty()) out.push_back(seq[rng->UniformInt(seq.size())]);
      break;
    }
    default: {  // reorder: shuffle a 25% sub-segment
      out = seq;
      const std::size_t len = std::max<std::size_t>(
          2, static_cast<std::size_t>(0.25 * static_cast<double>(seq.size())));
      if (len < out.size()) {
        const std::size_t start = rng->UniformInt(out.size() - len + 1);
        std::vector<std::size_t> segment(
            out.begin() + static_cast<std::ptrdiff_t>(start),
            out.begin() + static_cast<std::ptrdiff_t>(start + len));
        rng->Shuffle(&segment);
        std::copy(segment.begin(), segment.end(),
                  out.begin() + static_cast<std::ptrdiff_t>(start));
      }
      break;
    }
  }
  return out;
}

// Custom training step state for CL4SRec.
struct Cl4SRecTask {
  double aug_weight;
  double temperature;
  linalg::Rng rng;

  double Step(SasRecModel* model, const data::Batch& batch) {
    const std::size_t max_len = model->config().max_len;
    const std::vector<std::vector<std::size_t>> seqs = BatchSequences(batch);
    std::vector<std::vector<std::size_t>> view1(seqs.size());
    std::vector<std::vector<std::size_t>> view2(seqs.size());
    for (std::size_t b = 0; b < seqs.size(); ++b) {
      view1[b] = AugmentSequence(seqs[b], &rng);
      view2[b] = AugmentSequence(seqs[b], &rng);
    }
    const data::Batch b1 = BatchFromSequences(view1, max_len);
    const data::Batch b2 = BatchFromSequences(view2, max_len);

    // View 2 representations with stopped gradient (eval-mode pass).
    const Matrix z2 = model->UserRepresentations(b2);

    // View 1 trains against the frozen view-2 targets.
    Matrix v = model->EncodeItems(/*train=*/true);
    Matrix h1 = model->EncodeSequences(b1, v, /*train=*/true);
    Matrix z1 = GatherLastPositions(h1, b1);
    Matrix dz1, dz2_unused;
    const double cl_loss =
        nn::InfoNce(z1, z2, temperature, &dz1, &dz2_unused);
    dz1 *= aug_weight;
    Matrix dh1(h1.rows(), h1.cols());
    for (std::size_t b = 0; b < b1.batch_size; ++b) {
      dh1.SetRow(b1.Flat(b, b1.last_position[b]), dz1.Row(b));
    }
    Matrix dv_cl;
    model->BackwardSequences(b1, dh1, &dv_cl);
    model->BackwardItems(dv_cl);

    // Main next-item objective.
    const double main_loss = model->TrainStep(batch);
    return main_loss + aug_weight * cl_loss;
  }
};

}  // namespace

std::unique_ptr<SasRecRecommender> MakeCl4SRec(const data::Dataset& dataset,
                                               const SasRecConfig& config,
                                               double aug_weight,
                                               double temperature) {
  linalg::Rng rng(config.seed);
  auto rec = std::make_unique<SasRecRecommender>(
      "CL4SRec(ID)", MakeIdPart(dataset, config, &rng), config);
  auto task = std::make_shared<Cl4SRecTask>(
      Cl4SRecTask{aug_weight, temperature, linalg::Rng(config.seed + 99)});
  // The augmentation stream is named so checkpoints carry it: a resumed run
  // draws the same views as an uninterrupted one.
  rec->SetStep(
      [task](SasRecModel* model, const data::Batch& batch) {
        return task->Step(model, batch);
      },
      {{"augment", &task->rng}});
  return rec;
}

// ---------------------------------------------------------------------------
// S3-Rec
// ---------------------------------------------------------------------------

namespace {

// Joint attribute-prediction task: BCE between sigmoid(V A^T) and the
// one-hot category of each item.
struct S3RecTask {
  double weight;
  std::vector<std::size_t> categories;
  std::size_t num_categories;
  std::shared_ptr<nn::Parameter> attr;  // (num_categories, d)

  double Step(SasRecModel* model, const data::Batch& batch) {
    Matrix v = model->EncodeItems(/*train=*/true);
    Matrix h = model->EncodeSequences(batch, v, /*train=*/true);
    Matrix dh, dv;
    const double main_loss =
        model->SequenceLossAndGrad(batch, h, v, &dh, &dv);
    model->BackwardSequences(batch, dh, &dv);

    // Attribute head on the item matrix.
    const Matrix logits = linalg::MatMulTransB(v, attr->value);  // (N, C)
    const double inv = 1.0 / static_cast<double>(logits.size());
    double attr_loss = 0.0;
    Matrix dlogits(logits.rows(), logits.cols());
    for (std::size_t i = 0; i < logits.rows(); ++i) {
      for (std::size_t c = 0; c < logits.cols(); ++c) {
        const double y = categories[i] == c ? 1.0 : 0.0;
        const double x = logits(i, c);
        const double p = 1.0 / (1.0 + std::exp(-x));
        // Numerically-stable BCE-with-logits.
        attr_loss += std::max(x, 0.0) - x * y + std::log1p(std::exp(-std::fabs(x)));
        dlogits(i, c) = weight * (p - y) * inv;
      }
    }
    attr_loss *= inv;
    linalg::MatMulAcc(dlogits, attr->value, &dv);
    linalg::MatMulTransAAcc(dlogits, v, &attr->grad);

    model->BackwardItems(dv);
    return main_loss + weight * attr_loss;
  }
};

}  // namespace

std::unique_ptr<SasRecRecommender> MakeS3Rec(const data::Dataset& dataset,
                                             const SasRecConfig& config,
                                             double attribute_weight) {
  linalg::Rng rng(config.seed);
  auto text = std::make_unique<TextFeatureEncoder>(
      dataset.text_embeddings, config.hidden_dim, HeadKind::kMlp2, &rng);
  auto enc = WithOptionalId(std::move(text), true, dataset, config, &rng);
  auto rec = std::make_unique<SasRecRecommender>("S3-Rec(T+ID)",
                                                 std::move(enc), config);
  auto task = std::make_shared<S3RecTask>();
  task->weight = attribute_weight;
  task->categories = dataset.item_category;
  task->num_categories = dataset.num_categories;
  task->attr = std::make_shared<nn::Parameter>(
      "s3rec.attr", rng.GaussianMatrix(dataset.num_categories,
                                       config.hidden_dim, 0.02));
  rec->AddExtraParameters({task->attr.get()});
  rec->SetStep([task](SasRecModel* model, const data::Batch& batch) {
    return task->Step(model, batch);
  });
  return rec;
}

// ---------------------------------------------------------------------------
// VQRec
// ---------------------------------------------------------------------------

namespace {

// Lloyd k-means over rows of `x`; returns per-row assignments.
std::vector<std::size_t> KMeansAssign(const Matrix& x, std::size_t k,
                                      std::size_t iters, linalg::Rng* rng) {
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  WR_CHECK_GT(n, 0u);
  k = std::min(k, n);
  Matrix centroids(k, d);
  for (std::size_t c = 0; c < k; ++c) {
    centroids.SetRow(c, x.Row(rng->UniformInt(n)));
  }
  std::vector<std::size_t> assign(n, 0);
  for (std::size_t it = 0; it < iters; ++it) {
    for (std::size_t i = 0; i < n; ++i) {
      double best = 1e300;
      for (std::size_t c = 0; c < k; ++c) {
        double dist = 0.0;
        const double* xi = x.RowPtr(i);
        const double* cc = centroids.RowPtr(c);
        for (std::size_t j = 0; j < d; ++j) {
          const double diff = xi[j] - cc[j];
          dist += diff * diff;
        }
        if (dist < best) {
          best = dist;
          assign[i] = c;
        }
      }
    }
    centroids.SetZero();
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t i = 0; i < n; ++i) {
      ++counts[assign[i]];
      double* cc = centroids.RowPtr(assign[i]);
      const double* xi = x.RowPtr(i);
      for (std::size_t j = 0; j < d; ++j) cc[j] += xi[j];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        centroids.SetRow(c, x.Row(rng->UniformInt(n)));
        continue;
      }
      double* cc = centroids.RowPtr(c);
      for (std::size_t j = 0; j < d; ++j) {
        cc[j] /= static_cast<double>(counts[c]);
      }
    }
  }
  return assign;
}

// VQRec item encoder: item i is the sum over M sub-space code embeddings.
class VqEncoder : public ItemEncoder {
 public:
  VqEncoder(const Matrix& features, std::size_t out_dim,
            std::size_t num_subspaces, std::size_t num_centroids,
            linalg::Rng* rng)
      : num_items_(features.rows()),
        out_dim_(out_dim),
        num_subspaces_(num_subspaces),
        num_centroids_(num_centroids),
        table_("vq.table", rng->GaussianMatrix(num_subspaces * num_centroids,
                                               out_dim, 0.02)) {
    WR_CHECK_EQ(features.cols() % num_subspaces, 0u);
    const std::size_t sub_dim = features.cols() / num_subspaces;
    codes_.resize(num_items_ * num_subspaces);
    for (std::size_t m = 0; m < num_subspaces; ++m) {
      const Matrix block =
          features.ColSlice(m * sub_dim, (m + 1) * sub_dim);
      const std::vector<std::size_t> assign =
          KMeansAssign(block, num_centroids, /*iters=*/10, rng);
      for (std::size_t i = 0; i < num_items_; ++i) {
        codes_[i * num_subspaces + m] = m * num_centroids + assign[i];
      }
    }
  }

  std::size_t num_items() const override { return num_items_; }
  std::size_t output_dim() const override { return out_dim_; }

  Matrix Forward(bool /*train*/) override {
    Matrix v(num_items_, out_dim_);
    for (std::size_t i = 0; i < num_items_; ++i) {
      double* row = v.RowPtr(i);
      for (std::size_t m = 0; m < num_subspaces_; ++m) {
        const double* code_emb =
            table_.value.RowPtr(codes_[i * num_subspaces_ + m]);
        for (std::size_t c = 0; c < out_dim_; ++c) row[c] += code_emb[c];
      }
    }
    return v;
  }

  void Backward(const Matrix& dv) override {
    for (std::size_t i = 0; i < num_items_; ++i) {
      const double* drow = dv.RowPtr(i);
      for (std::size_t m = 0; m < num_subspaces_; ++m) {
        double* gr = table_.grad.RowPtr(codes_[i * num_subspaces_ + m]);
        for (std::size_t c = 0; c < out_dim_; ++c) gr[c] += drow[c];
      }
    }
  }

  void CollectParameters(std::vector<nn::Parameter*>* out) override {
    out->push_back(&table_);
  }
  std::string name() const override { return "vqrec"; }

 private:
  std::size_t num_items_;
  std::size_t out_dim_;
  std::size_t num_subspaces_;
  std::size_t num_centroids_;
  nn::Parameter table_;
  std::vector<std::size_t> codes_;
};

}  // namespace

std::unique_ptr<SasRecRecommender> MakeVqRec(const data::Dataset& dataset,
                                             const SasRecConfig& config,
                                             std::size_t num_subspaces,
                                             std::size_t num_centroids) {
  linalg::Rng rng(config.seed);
  auto enc = std::make_unique<VqEncoder>(dataset.text_embeddings,
                                         config.hidden_dim, num_subspaces,
                                         num_centroids, &rng);
  return std::make_unique<SasRecRecommender>("VQRec(T)", std::move(enc),
                                             config);
}

// ---------------------------------------------------------------------------
// FDSA
// ---------------------------------------------------------------------------

namespace {

class FdsaRecommender final : public TrainableRecommender {
 public:
  FdsaRecommender(const data::Dataset& dataset, const SasRecConfig& cfg)
      : config_(cfg), rng_(cfg.seed) {
    enc_id_ = std::make_unique<IdEncoder>(dataset.num_items, cfg.hidden_dim,
                                          &rng_, "fdsa.id");
    enc_text_ = std::make_unique<TextFeatureEncoder>(
        dataset.text_embeddings, cfg.hidden_dim, HeadKind::kMlp2, &rng_,
        "fdsa.text");
    input_id_ = std::make_unique<SequenceInput>(
        cfg.max_len, cfg.hidden_dim, cfg.dropout, &rng_, "fdsa.pos_id");
    input_text_ = std::make_unique<SequenceInput>(
        cfg.max_len, cfg.hidden_dim, cfg.dropout, &rng_, "fdsa.pos_text");
    trans_id_ = std::make_unique<nn::TransformerEncoder>(
        cfg.hidden_dim, cfg.num_blocks, cfg.num_heads, cfg.ffn_hidden,
        cfg.dropout, &rng_, "fdsa.trans_id");
    trans_text_ = std::make_unique<nn::TransformerEncoder>(
        cfg.hidden_dim, cfg.num_blocks, cfg.num_heads, cfg.ffn_hidden,
        cfg.dropout, &rng_, "fdsa.trans_text");
    fusion_ = std::make_unique<nn::Linear>(2 * cfg.hidden_dim, cfg.hidden_dim,
                                           &rng_, "fdsa.fusion");
  }

  std::string name() const override { return "FDSA(T+ID)"; }
  std::size_t num_items() const override { return enc_id_->num_items(); }

  // Users are the fused last-position states; both streams score against
  // the summed item table. Each stream runs the last-position eval forward
  // over its packed prefixes, and only those B last rows are fused: bitwise
  // the last rows of the training forward in eval mode (both streams are
  // causal), with no layer cache written.
  bool ScoreFactors(const data::Batch& batch, Matrix* users,
                    Matrix* items) override {
    Matrix v_id = enc_id_->Forward(/*train=*/false);
    const Matrix v_text = enc_text_->Forward(/*train=*/false);
    Matrix h_id;
    Matrix h_text;
    ForwardLastPositions(*input_id_, *trans_id_, batch, v_id, &h_id);
    ForwardLastPositions(*input_text_, *trans_text_, batch, v_text, &h_text);
    Matrix concat(batch.batch_size, 2 * config_.hidden_dim);
    concat.SetColSlice(0, h_id);
    concat.SetColSlice(config_.hidden_dim, h_text);
    fusion_->ForwardEvalInto(concat, users);
    *items = std::move(v_id);
    *items += v_text;
    return true;
  }

  std::vector<nn::Parameter*> Parameters() override {
    std::vector<nn::Parameter*> params;
    enc_id_->CollectParameters(&params);
    enc_text_->CollectParameters(&params);
    input_id_->CollectParameters(&params);
    input_text_->CollectParameters(&params);
    trans_id_->CollectParameters(&params);
    trans_text_->CollectParameters(&params);
    fusion_->CollectParameters(&params);
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
  double TrainStep(const data::Batch& batch) {
    const Matrix v_id = enc_id_->Forward(/*train=*/true);
    const Matrix v_text = enc_text_->Forward(/*train=*/true);
    const Matrix x_id = input_id_->Forward(batch, v_id, /*train=*/true);
    const Matrix x_text = input_text_->Forward(batch, v_text, /*train=*/true);
    const Matrix h_id =
        trans_id_->Forward(x_id, batch.batch_size, batch.seq_len, true);
    const Matrix h_text =
        trans_text_->Forward(x_text, batch.batch_size, batch.seq_len, true);
    Matrix concat(h_id.rows(), 2 * config_.hidden_dim);
    concat.SetColSlice(0, h_id);
    concat.SetColSlice(config_.hidden_dim, h_text);
    const Matrix h = fusion_->Forward(concat);
    Matrix v_sum = v_id;
    v_sum += v_text;
    Matrix dh;
    Matrix dv;  // to both streams
    const double loss = nn::StreamingSoftmaxCrossEntropy(
        h, v_sum, batch.targets, batch.target_weights, &dh, &dv);

    const Matrix dconcat = fusion_->Backward(dh);
    const Matrix dh_id = dconcat.ColSlice(0, config_.hidden_dim);
    const Matrix dh_text =
        dconcat.ColSlice(config_.hidden_dim, 2 * config_.hidden_dim);
    Matrix dv_id = dv;
    Matrix dv_text = std::move(dv);
    input_id_->Backward(trans_id_->Backward(dh_id), &dv_id);
    input_text_->Backward(trans_text_->Backward(dh_text), &dv_text);
    enc_id_->Backward(dv_id);
    enc_text_->Backward(dv_text);
    return loss;
  }

  SasRecConfig config_;
  linalg::Rng rng_;
  std::unique_ptr<IdEncoder> enc_id_;
  std::unique_ptr<TextFeatureEncoder> enc_text_;
  std::unique_ptr<SequenceInput> input_id_;
  std::unique_ptr<SequenceInput> input_text_;
  std::unique_ptr<nn::TransformerEncoder> trans_id_;
  std::unique_ptr<nn::TransformerEncoder> trans_text_;
  std::unique_ptr<nn::Linear> fusion_;  // (2d -> d)
  TrainResult result_;
};

}  // namespace

std::unique_ptr<TrainableRecommender> MakeFdsa(const data::Dataset& dataset,
                                               const SasRecConfig& config) {
  return std::make_unique<FdsaRecommender>(dataset, config);
}

}  // namespace seqrec
}  // namespace whitenrec
