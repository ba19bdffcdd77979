#ifndef WHITENREC_WHITENING_WHITEN_ENCODER_H_
#define WHITENREC_WHITENING_WHITEN_ENCODER_H_

#include <memory>
#include <string>
#include <vector>

#include "whitening/item_encoder.h"
#include "whitening/whitening.h"
#include "linalg/rng.h"
#include "nn/layers.h"
#include "nn/tensor.h"

namespace whitenrec {

// Softmax-gated mixture of experts, y = sum_e softmax(x G + b)_e * E_e(x):
// the projection head's MoE (Table V, nn::Linear experts) and UniSRec's
// adaptor (ParametricWhitening experts). An Expert has Forward/Backward
// (caching its last forward), a const ForwardEvalInto and CollectParameters.
template <typename Expert>
class GatedMixture {
 public:
  static constexpr std::size_t kNumExperts = 4;

  // Draws the gate `name.gate` first, then make_expert(0..3) in order: the
  // RNG and parameter order every checkpoint was written in.
  template <typename MakeExpert>
  GatedMixture(std::size_t in_dim, std::size_t out_dim, linalg::Rng* rng,
               const std::string& name, MakeExpert make_expert)
      : in_dim_(in_dim),
        out_dim_(out_dim),
        gate_(in_dim, kNumExperts, rng, name + ".gate") {
    for (std::size_t e = 0; e < kNumExperts; ++e) {
      experts_.push_back(make_expert(e));
    }
  }

  // Training forward: caches the gate probabilities and every expert's
  // output for Backward (each expert's own cache holds this same x).
  linalg::Matrix Forward(const linalg::Matrix& x) {
    cached_probs_ = gate_.Forward(x);
    nn::RowSoftmaxInPlace(&cached_probs_);
    cached_expert_out_.clear();
    linalg::Matrix out(x.rows(), out_dim_);
    for (std::size_t e = 0; e < kNumExperts; ++e) {
      cached_expert_out_.push_back(experts_[e]->Forward(x));
      AddGatedShare(cached_probs_, e, cached_expert_out_.back(), &out);
    }
    return out;
  }

  // Forward's arithmetic, bitwise, touching no cache.
  linalg::Matrix ForwardEval(const linalg::Matrix& x) const {
    linalg::Matrix probs;
    gate_.ForwardEvalInto(x, &probs);
    nn::RowSoftmaxInPlace(&probs);
    linalg::Matrix out(x.rows(), out_dim_);
    linalg::Matrix expert_out;
    for (std::size_t e = 0; e < kNumExperts; ++e) {
      experts_[e]->ForwardEvalInto(x, &expert_out);
      AddGatedShare(probs, e, expert_out, &out);
    }
    return out;
  }

  // Accumulates the gate's and every expert's gradients from dy; returns dx.
  linalg::Matrix Backward(const linalg::Matrix& dy) {
    const std::size_t n = dy.rows();
    linalg::Matrix dx(n, in_dim_);
    linalg::Matrix dgate(n, kNumExperts);
    for (std::size_t e = 0; e < kNumExperts; ++e) {
      // dExpertOut_e = g_e * dy (row-scaled); dg_e = <dy_row, expert_row>.
      linalg::Matrix dexp(n, out_dim_);
      const linalg::Matrix& eo = cached_expert_out_[e];
      for (std::size_t r = 0; r < n; ++r) {
        const double g = cached_probs_(r, e);
        const double* dyrow = dy.RowPtr(r);
        const double* erow = eo.RowPtr(r);
        double* drow = dexp.RowPtr(r);
        double dg = 0.0;
        for (std::size_t c = 0; c < out_dim_; ++c) {
          drow[c] = g * dyrow[c];
          // Row-wise dot (sum of a Hadamard product), not a matmul: a GEMM
          // here would compute the full n*n product for its diagonal.
          // whitenrec-lint: allow(hand-rolled-gemm)
          dg += dyrow[c] * erow[c];
        }
        dgate(r, e) = dg;
      }
      dx += experts_[e]->Backward(dexp);
    }
    linalg::Matrix dlogits(n, kNumExperts);
    for (std::size_t r = 0; r < n; ++r) {
      nn::SoftmaxBackwardRow(cached_probs_.RowPtr(r), dgate.RowPtr(r),
                             kNumExperts, dlogits.RowPtr(r));
    }
    dx += gate_.Backward(dlogits);
    return dx;
  }

  void CollectParameters(std::vector<nn::Parameter*>* out) {
    gate_.CollectParameters(out);
    for (auto& e : experts_) e->CollectParameters(out);
  }

  std::size_t out_dim() const { return out_dim_; }

 private:
  // out += diag(probs[:, e]) * expert_out: expert e's gated share.
  static void AddGatedShare(const linalg::Matrix& probs, std::size_t e,
                            const linalg::Matrix& expert_out,
                            linalg::Matrix* out) {
    for (std::size_t r = 0; r < out->rows(); ++r) {
      const double g = probs(r, e);
      double* orow = out->RowPtr(r);
      const double* erow = expert_out.RowPtr(r);
      for (std::size_t c = 0; c < out->cols(); ++c) orow[c] += g * erow[c];
    }
  }

  std::size_t in_dim_;
  std::size_t out_dim_;
  nn::Linear gate_;
  std::vector<std::unique_ptr<Expert>> experts_;
  linalg::Matrix cached_probs_;                    // (n, E)
  std::vector<linalg::Matrix> cached_expert_out_;  // E of (n, out)
};

// Projection head variants (paper Table V): a plain linear map, MLPs with
// 1-3 hidden layers (ReLU on every hidden layer, hidden width = out_dim),
// or a softmax-gated mixture of GatedMixture::kNumExperts linear experts.
enum class HeadKind {
  kLinear,
  kMlp1,
  kMlp2,
  kMlp3,
  kMoe,
};
const char* HeadKindName(HeadKind kind);

class ProjectionHead {
 public:
  ProjectionHead(std::size_t in_dim, std::size_t out_dim, HeadKind kind,
                 linalg::Rng* rng, std::string name = "head");

  // Training forward: caches what Backward needs.
  linalg::Matrix Forward(const linalg::Matrix& x);
  linalg::Matrix Backward(const linalg::Matrix& dy);
  // Eval forward: the same arithmetic through Linear::ForwardEvalInto and an
  // in-place ReLU (MoE: GatedMixture::ForwardEval), bitwise equal
  // to Forward, touching no cache. Const, so safe beside a training step.
  linalg::Matrix ForwardEval(const linalg::Matrix& x) const;
  void CollectParameters(std::vector<nn::Parameter*>* out);

  std::size_t in_dim() const { return in_dim_; }
  std::size_t out_dim() const { return out_dim_; }

 private:
  std::size_t in_dim_;
  std::size_t out_dim_;

  // MLP path: linears_[0..k] with ReLU between them.
  std::vector<std::unique_ptr<nn::Linear>> linears_;
  std::vector<nn::ReLU> relus_;
  std::unique_ptr<GatedMixture<nn::Linear>> moe_;  // MoE path
};

// Ensemble combiners for WhitenRec+ (paper Table VII).
enum class EnsembleKind {
  kSum,     // V = f(Z_G1) + f(Z_Gk), shared head (paper Eq. 6, default)
  kConcat,  // V = f([Z_G1 ; Z_Gk]), feature-wise concatenation into one head
  kAttn,    // V = a1 f(Z_G1) + a2 f(Z_Gk), softmax attention over branches
};
const char* EnsembleKindName(EnsembleKind kind);

// Paper Eq. 6: two branches through one shared projection head, combined
// per EnsembleKind. kSum/kAttn stack the branches row-wise, so the head runs
// one forward/backward per step; kConcat feeds a head of 2*branch_dim
// inputs. WhitenRecPlusEncoder's branches are frozen, PwEnsembleEncoder's PW.
class BranchEnsemble {
 public:
  // Draws the head `name.head`, then (kAttn) the scorer `name.scorer`.
  BranchEnsemble(std::size_t branch_dim, std::size_t out_dim,
                 EnsembleKind kind, HeadKind head, linalg::Rng* rng,
                 const std::string& name);

  // V (n, out_dim) from branches z1, z2 (each (n, branch_dim)). train fills
  // the head's and kAttn's backward caches; !train writes none.
  linalg::Matrix Forward(const linalg::Matrix& z1, const linalg::Matrix& z2,
                         bool train);
  // Accumulates the head's (and scorer's) gradients from dL/dV and, when
  // the branches are trainable, writes each branch's gradient to dz1/dz2.
  void Backward(const linalg::Matrix& dv, linalg::Matrix* dz1 = nullptr,
                linalg::Matrix* dz2 = nullptr);
  void CollectParameters(std::vector<nn::Parameter*>* out);

  std::size_t out_dim() const { return head_.out_dim(); }

 private:
  // dL/dH of the row-stacked head output; kAttn also trains its scorer.
  linalg::Matrix StackedOutputGrad(const linalg::Matrix& dv);

  EnsembleKind kind_;
  ProjectionHead head_;
  // kAttn only: the (d -> 1) scorer, the (2N, d) stacked branch outputs and
  // the (N, 2) branch attention weights.
  std::unique_ptr<nn::Linear> attn_scorer_;
  linalg::Matrix cached_h_;
  linalg::Matrix cached_alpha_;
};

// WhitenRec item encoder: frozen (whitened) text features -> projection
// head. With raw features this is SASRec^T's encoder; construction helpers
// below pick the right preprocessing. Forward(train) honours its flag, as
// every head-wrapping encoder here does: Forward(true) fills the head's
// backward caches, Forward(false) runs ProjectionHead::ForwardEval and
// writes none, so evaluating or re-encoding the catalog for serving never
// disturbs a training step.
class TextFeatureEncoder : public ItemEncoder {
 public:
  TextFeatureEncoder(linalg::Matrix features, std::size_t out_dim,
                     HeadKind head, linalg::Rng* rng,
                     std::string name = "text");

  std::size_t num_items() const override { return features_.rows(); }
  std::size_t output_dim() const override { return head_.out_dim(); }
  linalg::Matrix Forward(bool train) override;
  void Backward(const linalg::Matrix& dv) override;
  void CollectParameters(std::vector<nn::Parameter*>* out) override;
  std::string name() const override { return name_; }

  const linalg::Matrix& features() const { return features_; }

  // Swaps in a new frozen feature table (same column count, >= 2 rows); it
  // checks the shape before it assigns, so a refused table leaves the
  // encoder unchanged. The serving item-ingest path uses this after
  // refitting the whitening transform online: the trained projection head
  // is kept, only its frozen input changes.
  Status ReplaceFeatures(linalg::Matrix features);

 private:
  linalg::Matrix features_;  // frozen
  ProjectionHead head_;
  std::string name_;
};

// WhitenRec+ item encoder (paper Sec. IV-C): combines a fully whitened
// branch and a relaxed whitened branch through a BranchEnsemble.
class WhitenRecPlusEncoder : public ItemEncoder {
 public:
  WhitenRecPlusEncoder(linalg::Matrix z_full, linalg::Matrix z_relaxed,
                       std::size_t out_dim, EnsembleKind ensemble,
                       HeadKind head, linalg::Rng* rng,
                       std::string name = "whitenrec+");

  std::size_t num_items() const override { return z_full_.rows(); }
  std::size_t output_dim() const override { return ensemble_.out_dim(); }
  linalg::Matrix Forward(bool train) override;
  void Backward(const linalg::Matrix& dv) override;
  void CollectParameters(std::vector<nn::Parameter*>* out) override;
  std::string name() const override { return name_; }

 private:
  linalg::Matrix z_full_;
  linalg::Matrix z_relaxed_;
  BranchEnsemble ensemble_;
  std::string name_;
};

// Configuration used by the factories below.
struct WhitenRecConfig {
  std::size_t out_dim = 32;
  std::size_t full_groups = 1;     // G of the (fully) whitened branch
  std::size_t relaxed_groups = 4;  // G of the relaxed branch (WhitenRec+)
  WhiteningKind whitening = WhiteningKind::kZca;
  double epsilon = 1e-5;
  HeadKind head = HeadKind::kMlp2;
  EnsembleKind ensemble = EnsembleKind::kSum;
  // Whitening-k truncation: keep only the top-`whiten_k` whitened dims
  // (0 = full rank). Requires full_groups == 1 and is rejected by
  // MakeWhitenRecPlusEncoder (the branch widths must match).
  std::size_t whiten_k = 0;
};

// WhitenRec: whitens `features` (groups = config.full_groups) and wraps them
// in a TextFeatureEncoder.
Result<std::unique_ptr<ItemEncoder>> MakeWhitenRecEncoder(
    const linalg::Matrix& features, const WhitenRecConfig& config,
    linalg::Rng* rng);

// WhitenRec+: full + relaxed branches, ensemble per config.
Result<std::unique_ptr<ItemEncoder>> MakeWhitenRecPlusEncoder(
    const linalg::Matrix& features, const WhitenRecConfig& config,
    linalg::Rng* rng);

}  // namespace whitenrec

#endif  // WHITENREC_WHITENING_WHITEN_ENCODER_H_
