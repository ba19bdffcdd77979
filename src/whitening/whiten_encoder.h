#ifndef WHITENREC_WHITENING_WHITEN_ENCODER_H_
#define WHITENREC_WHITENING_WHITEN_ENCODER_H_

#include <memory>
#include <string>
#include <vector>

#include "whitening/item_encoder.h"
#include "whitening/whitening.h"
#include "linalg/rng.h"
#include "nn/layers.h"

namespace whitenrec {

// Projection head variants (paper Table V): a plain linear map, MLPs with
// 1-3 hidden layers (ReLU on every hidden layer, hidden width = out_dim),
// or a sparsely-gated Mixture-of-Experts of linear experts.
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
                 linalg::Rng* rng, std::size_t num_experts = 4,
                 std::string name = "head");

  // Training forward: caches what Backward needs.
  linalg::Matrix Forward(const linalg::Matrix& x);
  linalg::Matrix Backward(const linalg::Matrix& dy);
  // Eval forward: the same arithmetic through Linear::ForwardEvalInto and an
  // in-place ReLU (MoE: the same gate softmax and expert mix), bitwise equal
  // to Forward, touching no cache. Const, so safe beside a training step.
  linalg::Matrix ForwardEval(const linalg::Matrix& x) const;
  void CollectParameters(std::vector<nn::Parameter*>* out);

  std::size_t in_dim() const { return in_dim_; }
  std::size_t out_dim() const { return out_dim_; }

 private:
  std::size_t in_dim_;
  std::size_t out_dim_;
  HeadKind kind_;

  // MLP path: linears_[0..k] with ReLU between them.
  std::vector<std::unique_ptr<nn::Linear>> linears_;
  std::vector<nn::ReLU> relus_;

  // MoE path.
  std::unique_ptr<nn::Linear> gate_;
  std::vector<std::unique_ptr<nn::Linear>> experts_;
  linalg::Matrix cached_gate_probs_;               // (n, E)
  std::vector<linalg::Matrix> cached_expert_out_;  // E of (n, out)
};

// Ensemble combiners for WhitenRec+ (paper Table VII).
enum class EnsembleKind {
  kSum,     // V = f(Z_G1) + f(Z_Gk), shared head (paper Eq. 6, default)
  kConcat,  // V = f([Z_G1 ; Z_Gk]), feature-wise concatenation into one head
  kAttn,    // V = a1 f(Z_G1) + a2 f(Z_Gk), softmax attention over branches
};
const char* EnsembleKindName(EnsembleKind kind);

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
// branch and a relaxed whitened branch through a shared projection head.
// For kSum/kAttn the two branches are stacked row-wise so the shared head
// performs exactly one forward/backward per step; for kConcat the branches
// are concatenated feature-wise and the head takes 2*d_t inputs.
class WhitenRecPlusEncoder : public ItemEncoder {
 public:
  WhitenRecPlusEncoder(linalg::Matrix z_full, linalg::Matrix z_relaxed,
                       std::size_t out_dim, EnsembleKind ensemble,
                       HeadKind head, linalg::Rng* rng,
                       std::string name = "whitenrec+");

  std::size_t num_items() const override { return z_full_.rows(); }
  std::size_t output_dim() const override { return out_dim_; }
  linalg::Matrix Forward(bool train) override;
  void Backward(const linalg::Matrix& dv) override;
  void CollectParameters(std::vector<nn::Parameter*>* out) override;
  std::string name() const override { return name_; }

 private:
  linalg::Matrix StackedInput() const;

  linalg::Matrix z_full_;
  linalg::Matrix z_relaxed_;
  std::size_t out_dim_;
  EnsembleKind ensemble_;
  ProjectionHead head_;
  std::unique_ptr<nn::Linear> attn_scorer_;  // kAttn only: (d -> 1)
  std::string name_;

  // kAttn caches.
  linalg::Matrix cached_h_;      // (2N, d) stacked branch outputs
  linalg::Matrix cached_alpha_;  // (N, 2) branch attention weights
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
