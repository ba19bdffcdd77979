#include "whitening/incremental_whitening.h"

#include "core/check.h"

namespace whitenrec {

using linalg::Matrix;

IncrementalWhitening::IncrementalWhitening(std::size_t dims)
    : dims_(dims), mean_(dims, 0.0), comoment_(dims, dims) {
  WR_CHECK_GT(dims, 0u);
}

void IncrementalWhitening::Add(const Matrix& rows) {
  WR_CHECK_EQ(rows.cols(), dims_);
  // A single non-finite arrival would permanently poison the running
  // mean/co-moment; no later Add can undo it.
  WR_CHECK_FINITE(rows);
  // Welford update per row: exact running mean and centered co-moment.
  std::vector<double> delta(dims_);
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    ++count_;
    const double* row = rows.RowPtr(r);
    const double inv = 1.0 / static_cast<double>(count_);
    for (std::size_t c = 0; c < dims_; ++c) {
      delta[c] = row[c] - mean_[c];
      mean_[c] += delta[c] * inv;
    }
    // comoment += delta * (x - new_mean)^T; symmetric rank-1 update.
    for (std::size_t i = 0; i < dims_; ++i) {
      const double di = delta[i];
      double* mrow = comoment_.RowPtr(i);
      for (std::size_t j = 0; j < dims_; ++j) {
        // Not a GEMM: a rank-1 Welford update against the just-moved mean,
        // so the factors change every row and cannot be batched.
        // whitenrec-lint: allow(hand-rolled-gemm)
        mrow[j] += di * (row[j] - mean_[j]);
      }
    }
  }
}

std::vector<double> IncrementalWhitening::Mean() const { return mean_; }

Result<Matrix> IncrementalWhitening::CovarianceMatrix(double epsilon) const {
  if (count_ < 2) {
    return Status::InvalidArgument("IncrementalWhitening: need >= 2 samples");
  }
  Matrix cov = comoment_;
  cov *= 1.0 / static_cast<double>(count_);
  if (epsilon != 0.0) {
    for (std::size_t i = 0; i < dims_; ++i) cov(i, i) += epsilon;
  }
  return cov;
}

Result<FittedWhitening> IncrementalWhitening::Fit(
    const WhiteningOptions& options) const {
  if (options.ledoit_wolf) {
    return Status::InvalidArgument(
        "IncrementalWhitening: Ledoit-Wolf needs per-sample moments; "
        "use FitWhiteningAdvanced on the full matrix instead");
  }
  Result<Matrix> cov = CovarianceMatrix(options.epsilon);
  if (!cov.ok()) return cov.status();
  // Same phi construction as the batch fit — including rank truncation — so
  // a streamed fit agrees with a batch fit on the same moments by
  // construction, not by parallel maintenance of two eigensolve paths.
  return FitWhiteningFromMoments(mean_, cov.value(), options);
}

}  // namespace whitenrec
