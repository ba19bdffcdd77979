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
  // Forward's arithmetic without its cache; *y is reshaped.
  void ForwardEvalInto(const linalg::Matrix& x, linalg::Matrix* y) const;
  void CollectParameters(std::vector<nn::Parameter*>* out) override;

  std::size_t out_dim() const { return weight_.value.cols(); }

 private:
  linalg::Matrix Centered(const linalg::Matrix& x) const;  // x - beta

  nn::Parameter beta_;    // (1, in_dim)
  nn::Parameter weight_;  // (in_dim, out_dim)
  linalg::Matrix cached_centered_;
};

// UniSRec's item encoder: a GatedMixture adaptor whose experts are PW
// layers over the frozen text features, softmax-gated per item. (UniSRec's
// pre-training stage is removed, as in the paper's fair-comparison setup.)
// Like every encoder here, Forward(false) fills no backward cache.
class MoEPwEncoder : public ItemEncoder {
 public:
  MoEPwEncoder(linalg::Matrix features, std::size_t out_dim, linalg::Rng* rng,
               std::string name = "unisrec");

  std::size_t num_items() const override { return features_.rows(); }
  std::size_t output_dim() const override { return mixture_.out_dim(); }
  linalg::Matrix Forward(bool train) override;
  void Backward(const linalg::Matrix& dv) override;
  void CollectParameters(std::vector<nn::Parameter*>* out) override;
  std::string name() const override { return name_; }

 private:
  linalg::Matrix features_;  // frozen
  GatedMixture<ParametricWhitening> mixture_;
  std::string name_;
};

// Table VI "PW" row: the WhitenRec+ architecture with both precomputed
// whitening branches replaced by learnable PW layers feeding a kSum
// BranchEnsemble (Eq. 6).
class PwEnsembleEncoder : public ItemEncoder {
 public:
  PwEnsembleEncoder(linalg::Matrix features, std::size_t out_dim,
                    HeadKind head, linalg::Rng* rng,
                    std::string name = "whitenrec+pw");

  std::size_t num_items() const override { return features_.rows(); }
  std::size_t output_dim() const override { return ensemble_.out_dim(); }
  linalg::Matrix Forward(bool train) override;
  void Backward(const linalg::Matrix& dv) override;
  void CollectParameters(std::vector<nn::Parameter*>* out) override;
  std::string name() const override { return name_; }

 private:
  linalg::Matrix features_;
  ParametricWhitening pw_full_;
  ParametricWhitening pw_relaxed_;
  BranchEnsemble ensemble_;
  std::string name_;
};

}  // namespace whitenrec

#endif  // WHITENREC_WHITENING_PARAMETRIC_WHITENING_H_
