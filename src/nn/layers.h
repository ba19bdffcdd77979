#ifndef WHITENREC_NN_LAYERS_H_
#define WHITENREC_NN_LAYERS_H_

#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/rng.h"
#include "nn/tensor.h"

namespace whitenrec {
namespace nn {

// A trainable tensor: value plus accumulated gradient. Layers own their
// Parameters; the optimizer sees them through CollectParameters().
struct Parameter {
  std::string name;
  linalg::Matrix value;
  linalg::Matrix grad;

  Parameter() = default;
  Parameter(std::string n, linalg::Matrix v)
      : name(std::move(n)), value(std::move(v)),
        grad(value.rows(), value.cols()) {}

  void ZeroGrad() { grad.SetZero(); }
  std::size_t NumElements() const { return value.size(); }
};

// Base class for layers with manual forward/backward. Forward caches what
// backward needs; a layer instance therefore handles one forward/backward
// pair at a time (which is how the training loop uses them).
class Layer {
 public:
  virtual ~Layer() = default;
  virtual void CollectParameters(std::vector<Parameter*>* out) = 0;

 protected:
  Layer() = default;
};

// Fully connected layer: Y = X W + 1 b^T, W is (in x out).
class Linear : public Layer {
 public:
  Linear(std::size_t in_dim, std::size_t out_dim, linalg::Rng* rng,
         std::string name = "linear");

  // X: (n, in). Returns (n, out).
  linalg::Matrix Forward(const linalg::Matrix& x);
  // dY: (n, out). Accumulates into parameter grads; returns dX.
  linalg::Matrix Backward(const linalg::Matrix& dy);

  // Destination-reusing variants: callers that own a persistent buffer (a
  // Workspace slot or a member matrix) avoid reallocating the activations
  // every step. *y / *dx are reshaped; BackwardAccInto instead ADDS dX into
  // an already-shaped *dx (fusing the dx += pattern into the kernel).
  void ForwardInto(const linalg::Matrix& x, linalg::Matrix* y);
  void BackwardInto(const linalg::Matrix& dy, linalg::Matrix* dx);
  void BackwardAccInto(const linalg::Matrix& dy, linalg::Matrix* dx);

  // Eval-only forward: identical arithmetic to ForwardInto but leaves the
  // training cache untouched, so it is safe to call concurrently from
  // ParallelFor chunks (the serving incremental path relies on this). Each
  // output element is bitwise identical to the matching element of a batched
  // ForwardInto (canonical ascending-k GEMM accumulation + one bias add).
  void ForwardEvalInto(const linalg::Matrix& x, linalg::Matrix* y) const;

  void CollectParameters(std::vector<Parameter*>* out) override;

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  Parameter weight_;
  Parameter bias_;
  linalg::Matrix cached_input_;
};

// max(x, 0) elementwise, in place: the one clamp behind ReLU::Forward and
// the cache-free eval forwards.
void ReluInPlace(linalg::Matrix* m);

// Elementwise ReLU.
class ReLU : public Layer {
 public:
  ReLU() = default;
  linalg::Matrix Forward(const linalg::Matrix& x);
  linalg::Matrix Backward(const linalg::Matrix& dy);
  void CollectParameters(std::vector<Parameter*>*) override {}

 private:
  linalg::Matrix cached_input_;
};

// Inverted dropout. In eval mode (train=false) it is the identity.
class Dropout : public Layer {
 public:
  Dropout(double rate, linalg::Rng* rng);
  linalg::Matrix Forward(const linalg::Matrix& x, bool train);
  linalg::Matrix Backward(const linalg::Matrix& dy);
  void CollectParameters(std::vector<Parameter*>*) override {}

 private:
  double rate_;
  linalg::Rng* rng_;
  bool last_train_ = false;
  linalg::Matrix mask_;
};

// Per-row layer normalization with learnable gain/bias.
class LayerNorm : public Layer {
 public:
  LayerNorm(std::size_t dim, std::string name = "ln", double eps = 1e-8);
  linalg::Matrix Forward(const linalg::Matrix& x);
  linalg::Matrix Backward(const linalg::Matrix& dy);
  void CollectParameters(std::vector<Parameter*>* out) override;

  // Eval-only, cache-free forward through the same per-row routine as
  // Forward, so each row is bitwise Forward's. Safe to call concurrently;
  // used by the eval forwards.
  void ForwardEvalInto(const linalg::Matrix& x, linalg::Matrix* y) const;

  Parameter& gamma() { return gamma_; }
  Parameter& beta() { return beta_; }

 private:
  double eps_;
  Parameter gamma_;
  Parameter beta_;
  linalg::Matrix cached_xhat_;
  std::vector<double> cached_inv_std_;
};

// Trainable embedding table (num x dim) with gather forward / scatter-add
// backward.
class Embedding : public Layer {
 public:
  Embedding(std::size_t num, std::size_t dim, linalg::Rng* rng,
            std::string name = "emb");

  linalg::Matrix Forward(const std::vector<std::size_t>& indices);
  void Backward(const linalg::Matrix& dy);
  void CollectParameters(std::vector<Parameter*>* out) override;

  Parameter& table() { return table_; }
  const Parameter& table() const { return table_; }

 private:
  Parameter table_;
  std::vector<std::size_t> cached_indices_;
};

}  // namespace nn
}  // namespace whitenrec

#endif  // WHITENREC_NN_LAYERS_H_
