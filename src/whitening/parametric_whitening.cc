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

void ParametricWhitening::ForwardEvalInto(const Matrix& x, Matrix* y) const {
  *y = linalg::MatMul(Centered(x), weight_.value);
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
                           linalg::Rng* rng, std::string name)
    : features_(std::move(features)),
      mixture_(features_.cols(), out_dim, rng, name,
               [&, mean = linalg::ColumnMean(features_)](std::size_t e) {
                 return std::make_unique<ParametricWhitening>(
                     features_.cols(), out_dim, mean, rng,
                     name + ".pw" + std::to_string(e));
               }),
      name_(name) {}

Matrix MoEPwEncoder::Forward(bool train) {
  return train ? mixture_.Forward(features_) : mixture_.ForwardEval(features_);
}

void MoEPwEncoder::Backward(const Matrix& dv) {
  mixture_.Backward(dv);  // gradient w.r.t. frozen features is discarded
}

void MoEPwEncoder::CollectParameters(std::vector<nn::Parameter*>* out) {
  mixture_.CollectParameters(out);
}

PwEnsembleEncoder::PwEnsembleEncoder(Matrix features, std::size_t out_dim,
                                     HeadKind head, linalg::Rng* rng,
                                     std::string name)
    : features_(std::move(features)),
      pw_full_(features_.cols(), features_.cols(),
               linalg::ColumnMean(features_), rng, name + ".pw_full"),
      pw_relaxed_(features_.cols(), features_.cols(),
                  linalg::ColumnMean(features_), rng, name + ".pw_relaxed"),
      ensemble_(features_.cols(), out_dim, EnsembleKind::kSum, head, rng,
                name),
      name_(name) {}

Matrix PwEnsembleEncoder::Forward(bool train) {
  Matrix z1;
  Matrix z2;
  if (train) {
    z1 = pw_full_.Forward(features_);
    z2 = pw_relaxed_.Forward(features_);
  } else {
    pw_full_.ForwardEvalInto(features_, &z1);
    pw_relaxed_.ForwardEvalInto(features_, &z2);
  }
  return ensemble_.Forward(z1, z2, train);
}

void PwEnsembleEncoder::Backward(const Matrix& dv) {
  Matrix dz1;
  Matrix dz2;
  ensemble_.Backward(dv, &dz1, &dz2);
  pw_full_.Backward(dz1);
  pw_relaxed_.Backward(dz2);
}

void PwEnsembleEncoder::CollectParameters(std::vector<nn::Parameter*>* out) {
  pw_full_.CollectParameters(out);
  pw_relaxed_.CollectParameters(out);
  ensemble_.CollectParameters(out);
}

}  // namespace whitenrec
