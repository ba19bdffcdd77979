#include "nn/tensor.h"

#include <algorithm>
#include <cmath>

#include "core/parallel.h"

namespace whitenrec {
namespace nn {

void RowSoftmaxInPlace(linalg::Matrix* m) {
  // Row-independent, so the parallel split cannot change any result bit.
  core::ParallelFor(0, m->rows(), core::GrainForWork(m->cols()),
                    [m](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      double* row = m->RowPtr(r);
      double max_v = row[0];
      for (std::size_t c = 1; c < m->cols(); ++c)
        max_v = std::max(max_v, row[c]);
      double sum = 0.0;
      for (std::size_t c = 0; c < m->cols(); ++c) {
        row[c] = std::exp(row[c] - max_v);
        sum += row[c];
      }
      const double inv = 1.0 / sum;
      for (std::size_t c = 0; c < m->cols(); ++c) row[c] *= inv;
    }
  });
}

void SoftmaxBackwardRow(const double* p, const double* dp, std::size_t n,
                        double* ds) {
  double inner = 0.0;
  for (std::size_t i = 0; i < n; ++i) inner += dp[i] * p[i];
  for (std::size_t i = 0; i < n; ++i) ds[i] = p[i] * (dp[i] - inner);
}

std::vector<double> ColumnSum(const linalg::Matrix& m) {
  std::vector<double> sum(m.cols(), 0.0);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const double* row = m.RowPtr(r);
    for (std::size_t c = 0; c < m.cols(); ++c) sum[c] += row[c];
  }
  return sum;
}

void RowL2NormalizeInPlace(linalg::Matrix* m) {
  for (std::size_t r = 0; r < m->rows(); ++r) {
    double* row = m->RowPtr(r);
    double s = 0.0;
    for (std::size_t c = 0; c < m->cols(); ++c) s += row[c] * row[c];
    const double norm = std::sqrt(s);
    if (norm < 1e-12) continue;
    const double inv = 1.0 / norm;
    for (std::size_t c = 0; c < m->cols(); ++c) row[c] *= inv;
  }
}

linalg::Matrix GatherRows(const linalg::Matrix& table,
                          const std::vector<std::size_t>& indices) {
  linalg::Matrix out(indices.size(), table.cols());
  for (std::size_t k = 0; k < indices.size(); ++k) {
    WR_CHECK_LT(indices[k], table.rows());
    std::copy(table.RowPtr(indices[k]), table.RowPtr(indices[k]) + table.cols(),
              out.RowPtr(k));
  }
  return out;
}

void ZeroMaskedRows(const std::vector<double>& mask, linalg::Matrix* x) {
  WR_CHECK_EQ(mask.size(), x->rows());
  for (std::size_t r = 0; r < x->rows(); ++r) {
    if (mask[r] == 0.0) std::fill_n(x->RowPtr(r), x->cols(), 0.0);
  }
}

void ScatterAddRows(const linalg::Matrix& grads,
                    const std::vector<std::size_t>& indices,
                    linalg::Matrix* grad_table) {
  WR_CHECK_EQ(grads.rows(), indices.size());
  WR_CHECK_EQ(grads.cols(), grad_table->cols());
  for (std::size_t k = 0; k < indices.size(); ++k) {
    WR_CHECK_LT(indices[k], grad_table->rows());
    double* dst = grad_table->RowPtr(indices[k]);
    const double* src = grads.RowPtr(k);
    for (std::size_t c = 0; c < grads.cols(); ++c) dst[c] += src[c];
  }
}

}  // namespace nn
}  // namespace whitenrec
