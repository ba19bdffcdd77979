#include "nn/layers.h"

#include <cmath>

#include "core/check.h"
#include "linalg/gemm.h"

namespace whitenrec {
namespace nn {

using linalg::Matrix;

Linear::Linear(std::size_t in_dim, std::size_t out_dim, linalg::Rng* rng,
               std::string name)
    : weight_(name + ".W",
              rng->UniformMatrix(in_dim, out_dim,
                                 std::sqrt(6.0 / static_cast<double>(
                                                     in_dim + out_dim)))),
      bias_(name + ".b", Matrix(1, out_dim)) {}

Matrix Linear::Forward(const Matrix& x) {
  Matrix y;
  ForwardInto(x, &y);
  return y;
}

void Linear::ForwardInto(const Matrix& x, Matrix* y) {
  WR_CHECK_EQ(x.cols(), weight_.value.rows());
  WR_CHECK_FINITE(x);
  cached_input_ = x;
  linalg::MatMulInto(x, weight_.value, y);
  for (std::size_t r = 0; r < y->rows(); ++r) {
    double* row = y->RowPtr(r);
    const double* b = bias_.value.RowPtr(0);
    for (std::size_t c = 0; c < y->cols(); ++c) row[c] += b[c];
  }
  WR_CHECK_FINITE(*y);
}

void Linear::ForwardEvalInto(const Matrix& x, Matrix* y) const {
  WR_CHECK_EQ(x.cols(), weight_.value.rows());
  WR_CHECK_FINITE(x);
  linalg::MatMulInto(x, weight_.value, y);
  for (std::size_t r = 0; r < y->rows(); ++r) {
    double* row = y->RowPtr(r);
    const double* b = bias_.value.RowPtr(0);
    for (std::size_t c = 0; c < y->cols(); ++c) row[c] += b[c];
  }
  WR_CHECK_FINITE(*y);
}

Matrix Linear::Backward(const Matrix& dy) {
  Matrix dx;
  BackwardInto(dy, &dx);
  return dx;
}

void Linear::BackwardInto(const Matrix& dy, Matrix* dx) {
  WR_CHECK_EQ(dy.rows(), cached_input_.rows());
  WR_CHECK_EQ(dy.cols(), weight_.value.cols());
  WR_CHECK_FINITE(dy);
  // dW += X^T dY (accumulated in-kernel, no product temporary);
  // db += colsum(dY); dX = dY W^T.
  linalg::MatMulTransAAcc(cached_input_, dy, &weight_.grad);
  const std::vector<double> db = ColumnSum(dy);
  for (std::size_t c = 0; c < db.size(); ++c) bias_.grad(0, c) += db[c];
  linalg::MatMulTransBInto(dy, weight_.value, dx);
  WR_CHECK_FINITE(*dx);
}

void Linear::BackwardAccInto(const Matrix& dy, Matrix* dx) {
  WR_CHECK_EQ(dy.rows(), cached_input_.rows());
  WR_CHECK_EQ(dy.cols(), weight_.value.cols());
  WR_CHECK_FINITE(dy);
  linalg::MatMulTransAAcc(cached_input_, dy, &weight_.grad);
  const std::vector<double> db = ColumnSum(dy);
  for (std::size_t c = 0; c < db.size(); ++c) bias_.grad(0, c) += db[c];
  linalg::MatMulTransBAcc(dy, weight_.value, dx);
}

void Linear::CollectParameters(std::vector<Parameter*>* out) {
  out->push_back(&weight_);
  out->push_back(&bias_);
}

void ReluInPlace(Matrix* m) {
  for (std::size_t i = 0; i < m->size(); ++i) {
    if (m->data()[i] < 0.0) m->data()[i] = 0.0;
  }
}

Matrix ReLU::Forward(const Matrix& x) {
  cached_input_ = x;
  Matrix y = x;
  ReluInPlace(&y);
  return y;
}

Matrix ReLU::Backward(const Matrix& dy) {
  WR_CHECK_EQ(dy.size(), cached_input_.size());
  Matrix dx = dy;
  for (std::size_t i = 0; i < dx.size(); ++i) {
    if (cached_input_.data()[i] <= 0.0) dx.data()[i] = 0.0;
  }
  return dx;
}

Dropout::Dropout(double rate, linalg::Rng* rng) : rate_(rate), rng_(rng) {
  WR_CHECK_GE(rate, 0.0);
  WR_CHECK_LT(rate, 1.0);
}

Matrix Dropout::Forward(const Matrix& x, bool train) {
  last_train_ = train && rate_ > 0.0;
  if (!last_train_) return x;
  mask_ = Matrix(x.rows(), x.cols());
  const double keep = 1.0 - rate_;
  const double scale = 1.0 / keep;
  Matrix y = x;
  for (std::size_t i = 0; i < y.size(); ++i) {
    const bool kept = rng_->Uniform() < keep;
    mask_.data()[i] = kept ? scale : 0.0;
    y.data()[i] *= mask_.data()[i];
  }
  return y;
}

Matrix Dropout::Backward(const Matrix& dy) {
  if (!last_train_) return dy;
  return linalg::Hadamard(dy, mask_);
}

LayerNorm::LayerNorm(std::size_t dim, std::string name, double eps)
    : eps_(eps),
      gamma_(name + ".gamma", Matrix(1, dim, 1.0)),
      beta_(name + ".beta", Matrix(1, dim)) {}

namespace {

// Normalizes one row: xhat = (x - mean) * inv_std, then
// y = gamma * xhat + beta, and returns inv_std. `xhat` may alias `yrow`
// (the eval forward keeps no xhat). The training and eval forwards both call
// it, so their rows agree bitwise.
double NormalizeRow(const double* row, std::size_t d, double eps,
                    const double* g, const double* b, double* xhat,
                    double* yrow) {
  double mean = 0.0;
  for (std::size_t c = 0; c < d; ++c) mean += row[c];
  mean /= static_cast<double>(d);
  double var = 0.0;
  for (std::size_t c = 0; c < d; ++c) {
    const double diff = row[c] - mean;
    var += diff * diff;
  }
  var /= static_cast<double>(d);
  const double inv_std = 1.0 / std::sqrt(var + eps);
  for (std::size_t c = 0; c < d; ++c) xhat[c] = (row[c] - mean) * inv_std;
  for (std::size_t c = 0; c < d; ++c) yrow[c] = g[c] * xhat[c] + b[c];
  return inv_std;
}

}  // namespace

Matrix LayerNorm::Forward(const Matrix& x) {
  const std::size_t d = x.cols();
  WR_CHECK_EQ(d, gamma_.value.cols());
  WR_CHECK_FINITE(x);
  cached_xhat_ = Matrix(x.rows(), d);
  cached_inv_std_.assign(x.rows(), 0.0);
  Matrix y(x.rows(), d);
  const double* g = gamma_.value.RowPtr(0);
  const double* b = beta_.value.RowPtr(0);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    cached_inv_std_[r] = NormalizeRow(x.RowPtr(r), d, eps_, g, b,
                                      cached_xhat_.RowPtr(r), y.RowPtr(r));
  }
  WR_CHECK_FINITE(y);
  return y;
}

void LayerNorm::ForwardEvalInto(const Matrix& x, Matrix* y) const {
  const std::size_t d = x.cols();
  WR_CHECK_EQ(d, gamma_.value.cols());
  WR_CHECK_FINITE(x);
  y->Resize(x.rows(), d);
  const double* g = gamma_.value.RowPtr(0);
  const double* b = beta_.value.RowPtr(0);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    NormalizeRow(x.RowPtr(r), d, eps_, g, b, y->RowPtr(r), y->RowPtr(r));
  }
  WR_CHECK_FINITE(*y);
}

Matrix LayerNorm::Backward(const Matrix& dy) {
  const std::size_t d = dy.cols();
  WR_CHECK_EQ(dy.rows(), cached_xhat_.rows());
  WR_DCHECK_EQ(d, gamma_.value.cols());
  WR_CHECK_FINITE(dy);
  Matrix dx(dy.rows(), d);
  const double* g = gamma_.value.RowPtr(0);
  double* dgamma = gamma_.grad.RowPtr(0);
  double* dbeta = beta_.grad.RowPtr(0);
  for (std::size_t r = 0; r < dy.rows(); ++r) {
    const double* dyrow = dy.RowPtr(r);
    const double* xhat = cached_xhat_.RowPtr(r);
    const double inv_std = cached_inv_std_[r];
    // dL/dxhat = dy * gamma; then the standard layernorm backward:
    // dx = inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)).
    double mean_dxhat = 0.0;
    double mean_dxhat_xhat = 0.0;
    for (std::size_t c = 0; c < d; ++c) {
      const double dxh = dyrow[c] * g[c];
      mean_dxhat += dxh;
      mean_dxhat_xhat += dxh * xhat[c];
      dgamma[c] += dyrow[c] * xhat[c];
      dbeta[c] += dyrow[c];
    }
    mean_dxhat /= static_cast<double>(d);
    mean_dxhat_xhat /= static_cast<double>(d);
    double* dxrow = dx.RowPtr(r);
    for (std::size_t c = 0; c < d; ++c) {
      const double dxh = dyrow[c] * g[c];
      dxrow[c] = inv_std * (dxh - mean_dxhat - xhat[c] * mean_dxhat_xhat);
    }
  }
  WR_CHECK_FINITE(dx);
  return dx;
}

void LayerNorm::CollectParameters(std::vector<Parameter*>* out) {
  out->push_back(&gamma_);
  out->push_back(&beta_);
}

Embedding::Embedding(std::size_t num, std::size_t dim, linalg::Rng* rng,
                     std::string name)
    : table_(name + ".table", rng->GaussianMatrix(num, dim, 0.02)) {}

Matrix Embedding::Forward(const std::vector<std::size_t>& indices) {
  cached_indices_ = indices;
  return GatherRows(table_.value, indices);
}

void Embedding::Backward(const Matrix& dy) {
  ScatterAddRows(dy, cached_indices_, &table_.grad);
}

void Embedding::CollectParameters(std::vector<Parameter*>* out) {
  out->push_back(&table_);
}

}  // namespace nn
}  // namespace whitenrec
