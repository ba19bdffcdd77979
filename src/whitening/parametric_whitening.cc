#include "whitening/parametric_whitening.h"

#include <cmath>

#include "core/check.h"
#include "linalg/gemm.h"
#include "linalg/stats.h"
#include "nn/tensor.h"

namespace whitenrec {

using linalg::Matrix;

ParametricWhitening::ParametricWhitening(std::size_t in_dim,
                                         std::size_t out_dim,
                                         const std::vector<double>& init_mean,
                                         linalg::Rng* rng, std::string name)
    : beta_(name + ".beta", Matrix(1, in_dim)),
      weight_(name + ".W",
              rng->UniformMatrix(in_dim, out_dim,
                                 std::sqrt(6.0 / static_cast<double>(
                                                     in_dim + out_dim)))) {
  WR_CHECK_EQ(init_mean.size(), in_dim);
  for (std::size_t c = 0; c < in_dim; ++c) beta_.value(0, c) = init_mean[c];
}

Matrix ParametricWhitening::Centered(const Matrix& x) const {
  WR_CHECK_EQ(x.cols(), beta_.value.cols());
  WR_CHECK_FINITE(x);
  Matrix centered = x;
  const double* b = beta_.value.RowPtr(0);
  for (std::size_t r = 0; r < centered.rows(); ++r) {
    double* row = centered.RowPtr(r);
    for (std::size_t c = 0; c < centered.cols(); ++c) row[c] -= b[c];
  }
  return centered;
}

Matrix ParametricWhitening::Forward(const Matrix& x) {
  cached_centered_ = Centered(x);
  return linalg::MatMul(cached_centered_, weight_.value);
}

Matrix ParametricWhitening::ForwardEval(const Matrix& x) const {
  return linalg::MatMul(Centered(x), weight_.value);
}

Matrix ParametricWhitening::Backward(const Matrix& dy) {
  WR_CHECK_FINITE(dy);
  // z = (x - beta) W: dW += (x-beta)^T dy; dx = dy W^T; dbeta = -colsum(dx).
  linalg::MatMulTransAAcc(cached_centered_, dy, &weight_.grad);
  Matrix dx = linalg::MatMulTransB(dy, weight_.value);
  const std::vector<double> col_sum = nn::ColumnSum(dx);
  for (std::size_t c = 0; c < col_sum.size(); ++c) {
    beta_.grad(0, c) -= col_sum[c];
  }
  return dx;
}

void ParametricWhitening::CollectParameters(std::vector<nn::Parameter*>* out) {
  out->push_back(&beta_);
  out->push_back(&weight_);
}

MoEPwEncoder::MoEPwEncoder(Matrix features, std::size_t out_dim,
                           std::size_t num_experts, linalg::Rng* rng,
                           std::string name)
    : features_(std::move(features)), out_dim_(out_dim), name_(name) {
  const std::vector<double> mean = linalg::ColumnMean(features_);
  gate_ = std::make_unique<nn::Linear>(features_.cols(), num_experts, rng,
                                       name + ".gate");
  for (std::size_t e = 0; e < num_experts; ++e) {
    experts_.push_back(std::make_unique<ParametricWhitening>(
        features_.cols(), out_dim, mean, rng,
        name + ".pw" + std::to_string(e)));
  }
}

Matrix MoEPwEncoder::Forward(bool train) {
  Matrix probs;
  if (train) {
    probs = gate_->Forward(features_);
  } else {
    gate_->ForwardEvalInto(features_, &probs);
  }
  nn::RowSoftmaxInPlace(&probs);
  if (train) cached_expert_out_.clear();
  Matrix out(features_.rows(), out_dim_);
  for (std::size_t e = 0; e < experts_.size(); ++e) {
    Matrix eo = train ? experts_[e]->Forward(features_)
                      : experts_[e]->ForwardEval(features_);
    for (std::size_t r = 0; r < out.rows(); ++r) {
      const double g = probs(r, e);
      double* orow = out.RowPtr(r);
      const double* erow = eo.RowPtr(r);
      for (std::size_t c = 0; c < out_dim_; ++c) orow[c] += g * erow[c];
    }
    if (train) cached_expert_out_.push_back(std::move(eo));
  }
  if (train) cached_gate_probs_ = std::move(probs);
  return out;
}

void MoEPwEncoder::Backward(const Matrix& dv) {
  const std::size_t n = features_.rows();
  Matrix dgate(n, experts_.size());
  for (std::size_t e = 0; e < experts_.size(); ++e) {
    Matrix dexp(n, out_dim_);
    const Matrix& eo = cached_expert_out_[e];
    for (std::size_t r = 0; r < n; ++r) {
      const double g = cached_gate_probs_(r, e);
      const double* dvrow = dv.RowPtr(r);
      const double* erow = eo.RowPtr(r);
      double* drow = dexp.RowPtr(r);
      double dg = 0.0;
      for (std::size_t c = 0; c < out_dim_; ++c) {
        drow[c] = g * dvrow[c];
        // Row-wise dot (sum of a Hadamard product), not a matmul: a GEMM
        // here would compute the full n*n product for its diagonal.
        // whitenrec-lint: allow(hand-rolled-gemm)
        dg += dvrow[c] * erow[c];
      }
      dgate(r, e) = dg;
    }
    experts_[e]->Backward(dexp);
  }
  Matrix dlogits(n, experts_.size());
  for (std::size_t r = 0; r < n; ++r) {
    nn::SoftmaxBackwardRow(cached_gate_probs_.RowPtr(r), dgate.RowPtr(r),
                           experts_.size(), dlogits.RowPtr(r));
  }
  gate_->Backward(dlogits);
}

void MoEPwEncoder::CollectParameters(std::vector<nn::Parameter*>* out) {
  gate_->CollectParameters(out);
  for (auto& e : experts_) e->CollectParameters(out);
}

PwEnsembleEncoder::PwEnsembleEncoder(Matrix features, std::size_t out_dim,
                                     HeadKind head, linalg::Rng* rng,
                                     std::string name)
    : features_(std::move(features)),
      out_dim_(out_dim),
      pw_full_(features_.cols(), features_.cols(),
               linalg::ColumnMean(features_), rng, name + ".pw_full"),
      pw_relaxed_(features_.cols(), features_.cols(),
                  linalg::ColumnMean(features_), rng, name + ".pw_relaxed"),
      head_(features_.cols(), out_dim, head, rng, 4, name + ".head"),
      name_(name) {}

Matrix PwEnsembleEncoder::Forward(bool train) {
  const std::size_t n = features_.rows();
  const Matrix z1 = train ? pw_full_.Forward(features_)
                          : pw_full_.ForwardEval(features_);
  const Matrix z2 = train ? pw_relaxed_.Forward(features_)
                          : pw_relaxed_.ForwardEval(features_);
  Matrix stacked(2 * n, features_.cols());
  for (std::size_t r = 0; r < n; ++r) {
    stacked.SetRow(r, z1.Row(r));
    stacked.SetRow(n + r, z2.Row(r));
  }
  const Matrix h = train ? head_.Forward(stacked) : head_.ForwardEval(stacked);
  Matrix v(n, out_dim_);
  for (std::size_t r = 0; r < n; ++r) {
    const double* top = h.RowPtr(r);
    const double* bot = h.RowPtr(n + r);
    double* vrow = v.RowPtr(r);
    for (std::size_t c = 0; c < out_dim_; ++c) vrow[c] = top[c] + bot[c];
  }
  return v;
}

void PwEnsembleEncoder::Backward(const Matrix& dv) {
  const std::size_t n = features_.rows();
  Matrix dh(2 * n, out_dim_);
  for (std::size_t r = 0; r < n; ++r) {
    dh.SetRow(r, dv.Row(r));
    dh.SetRow(n + r, dv.Row(r));
  }
  const Matrix dstacked = head_.Backward(dh);
  Matrix dz1(n, features_.cols());
  Matrix dz2(n, features_.cols());
  for (std::size_t r = 0; r < n; ++r) {
    dz1.SetRow(r, dstacked.Row(r));
    dz2.SetRow(r, dstacked.Row(n + r));
  }
  pw_full_.Backward(dz1);
  pw_relaxed_.Backward(dz2);
}

void PwEnsembleEncoder::CollectParameters(std::vector<nn::Parameter*>* out) {
  pw_full_.CollectParameters(out);
  pw_relaxed_.CollectParameters(out);
  head_.CollectParameters(out);
}

}  // namespace whitenrec
