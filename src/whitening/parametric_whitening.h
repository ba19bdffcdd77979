#ifndef WHITENREC_WHITENING_PARAMETRIC_WHITENING_H_
#define WHITENREC_WHITENING_PARAMETRIC_WHITENING_H_

#include <memory>
#include <string>
#include <vector>

#include "whitening/item_encoder.h"
#include "whitening/whiten_encoder.h"
#include "linalg/rng.h"
#include "nn/layers.h"

namespace whitenrec {

// Parametric whitening (PW) layer from UniSRec: z = (x - beta) W with a
// learnable shift `beta` (initialized to the feature mean) and a learnable
// linear map W. Unlike the non-parametric transforms in whitening/whitening.h,
// nothing constrains the output to be decorrelated — the paper's Table VI
// shows this is exactly why PW underperforms true whitening.
class ParametricWhitening : public nn::Layer {
 public:
  // `init_mean` (length in_dim) seeds beta; pass the column means of the
  // features to start centered.
  ParametricWhitening(std::size_t in_dim, std::size_t out_dim,
                      const std::vector<double>& init_mean, linalg::Rng* rng,
                      std::string name = "pw");

  linalg::Matrix Forward(const linalg::Matrix& x);
  linalg::Matrix Backward(const linalg::Matrix& dy);
  // Forward's arithmetic without its cache.
  linalg::Matrix ForwardEval(const linalg::Matrix& x) const;
  void CollectParameters(std::vector<nn::Parameter*>* out) override;

  std::size_t out_dim() const { return weight_.value.cols(); }

 private:
  linalg::Matrix Centered(const linalg::Matrix& x) const;  // x - beta

  nn::Parameter beta_;    // (1, in_dim)
  nn::Parameter weight_;  // (in_dim, out_dim)
  linalg::Matrix cached_centered_;
};

// UniSRec's item encoder: a Mixture-of-Experts adaptor whose experts are PW
// layers over the frozen text features, softmax-gated per item. (UniSRec's
// pre-training stage is removed, as in the paper's fair-comparison setup.)
// Like every encoder here, Forward(false) fills no backward cache.
class MoEPwEncoder : public ItemEncoder {
 public:
  MoEPwEncoder(linalg::Matrix features, std::size_t out_dim,
               std::size_t num_experts, linalg::Rng* rng,
               std::string name = "unisrec");

  std::size_t num_items() const override { return features_.rows(); }
  std::size_t output_dim() const override { return out_dim_; }
  linalg::Matrix Forward(bool train) override;
  void Backward(const linalg::Matrix& dv) override;
  void CollectParameters(std::vector<nn::Parameter*>* out) override;
  std::string name() const override { return name_; }

 private:
  linalg::Matrix features_;  // frozen
  std::size_t out_dim_;
  std::unique_ptr<nn::Linear> gate_;
  std::vector<std::unique_ptr<ParametricWhitening>> experts_;
  linalg::Matrix cached_gate_probs_;
  std::vector<linalg::Matrix> cached_expert_out_;
  std::string name_;
};

// Table VI "PW" row: the WhitenRec+ architecture with both precomputed
// whitening branches replaced by learnable PW layers feeding the shared
// projection head (outputs summed, as in Eq. 6).
class PwEnsembleEncoder : public ItemEncoder {
 public:
  PwEnsembleEncoder(linalg::Matrix features, std::size_t out_dim,
                    HeadKind head, linalg::Rng* rng,
                    std::string name = "whitenrec+pw");

  std::size_t num_items() const override { return features_.rows(); }
  std::size_t output_dim() const override { return out_dim_; }
  linalg::Matrix Forward(bool train) override;
  void Backward(const linalg::Matrix& dv) override;
  void CollectParameters(std::vector<nn::Parameter*>* out) override;
  std::string name() const override { return name_; }

 private:
  linalg::Matrix features_;
  std::size_t out_dim_;
  ParametricWhitening pw_full_;
  ParametricWhitening pw_relaxed_;
  ProjectionHead head_;
  std::string name_;
};

}  // namespace whitenrec

#endif  // WHITENREC_WHITENING_PARAMETRIC_WHITENING_H_
