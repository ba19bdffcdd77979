#include "whitening/whitening.h"

#include <cmath>

#include "core/check.h"
#include "core/parallel.h"
#include "linalg/cholesky.h"
#include "linalg/eigen.h"
#include "linalg/stats.h"

namespace whitenrec {

using linalg::Matrix;

const char* WhiteningKindName(WhiteningKind kind) {
  switch (kind) {
    case WhiteningKind::kZca: return "ZCA";
    case WhiteningKind::kPca: return "PCA";
    case WhiteningKind::kCholesky: return "CD";
    case WhiteningKind::kBatchNorm: return "BN";
  }
  return "?";
}

Result<FittedWhitening> FitWhiteningFromMoments(
    std::vector<double> mean, const Matrix& sigma,
    const WhiteningOptions& options) {
  const std::size_t d = sigma.rows();
  WR_CHECK_EQ(sigma.cols(), d);
  WR_CHECK_EQ(mean.size(), d);
  // rank == d is the full-rank fit spelled explicitly; only 0 < rank < d
  // actually truncates, so the default path stays bitwise untouched.
  if (options.rank > d) {
    return Status::InvalidArgument(
        "FitWhitening: rank " + std::to_string(options.rank) +
        " exceeds feature dim " + std::to_string(d));
  }
  const bool truncate = options.rank > 0 && options.rank < d;

  FittedWhitening out;
  out.mean = std::move(mean);

  if (options.newton_iterations > 0) {
    if (options.kind != WhiteningKind::kZca) {
      return Status::InvalidArgument(
          "FitWhitening: Newton-Schulz only applies to ZCA");
    }
    if (truncate) {
      return Status::InvalidArgument(
          "FitWhitening: Newton-Schulz computes the full-rank inverse "
          "square root; rank truncation needs the exact eigensolve");
    }
    Result<Matrix> inv_sqrt =
        linalg::NewtonSchulzInverseSqrt(sigma, options.newton_iterations);
    if (!inv_sqrt.ok()) return inv_sqrt.status();
    out.phi = std::move(inv_sqrt).ValueOrDie();
    return out;
  }

  switch (options.kind) {
    case WhiteningKind::kBatchNorm: {
      if (truncate) {
        return Status::InvalidArgument(
            "FitWhitening: rank truncation needs an eigenbasis; "
            "BN has no spectrum to truncate (use ZCA or PCA)");
      }
      // Phi = diag(1/sigma_i): standardize, no cross-dim decorrelation.
      out.phi = Matrix(d, d);
      for (std::size_t i = 0; i < d; ++i) {
        const double var = sigma(i, i);
        if (var <= 0.0) {
          return Status::NumericalError("FitWhitening/BN: non-positive var");
        }
        out.phi(i, i) = 1.0 / std::sqrt(var);
      }
      return out;
    }
    case WhiteningKind::kCholesky: {
      if (truncate) {
        return Status::InvalidArgument(
            "FitWhitening: rank truncation needs an eigenbasis; "
            "Cholesky whitening has none (use ZCA or PCA)");
      }
      // Sigma = L L^T, Phi = L^{-1}; then Phi Sigma Phi^T = I.
      Result<Matrix> l = linalg::Cholesky(sigma);
      if (!l.ok()) return l.status();
      Result<Matrix> linv = linalg::LowerTriangularInverse(l.value());
      if (!linv.ok()) return linv.status();
      out.phi = std::move(linv).ValueOrDie();
      return out;
    }
    case WhiteningKind::kZca:
    case WhiteningKind::kPca: {
      Result<linalg::EigenDecomposition> eig = linalg::SymmetricEigen(sigma);
      if (!eig.ok()) return eig.status();
      const linalg::EigenDecomposition& e = eig.value();
      // lam_half_inv = Lambda^{-1/2} D^T, keeping only the top-k rows when
      // truncating. SymmetricEigen sorts eigenvalues descending, so rows
      // [0, k) are exactly the largest-variance directions and the
      // truncated phi is the row prefix of the full-rank PCA phi.
      const std::size_t k = truncate ? options.rank : d;
      Matrix lam_half_inv(k, d);
      for (std::size_t i = 0; i < k; ++i) {
        const double lam = e.values[i];
        if (lam <= 0.0) {
          return Status::NumericalError(
              "FitWhitening: non-positive eigenvalue; raise epsilon");
        }
        const double s = 1.0 / std::sqrt(lam);
        for (std::size_t j = 0; j < d; ++j) {
          lam_half_inv(i, j) = s * e.vectors(j, i);
        }
      }
      if (options.kind == WhiteningKind::kPca || truncate) {
        // Truncated ZCA degenerates to the PCA-basis map: the rotate-back
        // would re-embed into R^d and undo the dimensionality reduction.
        out.phi = std::move(lam_half_inv);
      } else {
        // ZCA adds the rotation back: Phi = D Lambda^{-1/2} D^T.
        out.phi = linalg::MatMul(e.vectors, lam_half_inv);
      }
      out.spectrum = std::move(eig).ValueOrDie().values;
      return out;
    }
  }
  return Status::InvalidArgument("FitWhitening: unknown kind");
}

Result<FittedWhitening> FitWhitening(const Matrix& x, WhiteningKind kind,
                                     double epsilon) {
  WhiteningOptions options;
  options.kind = kind;
  options.epsilon = epsilon;
  return FitWhiteningAdvanced(x, options);
}

Result<FittedWhitening> FitWhiteningAdvanced(const Matrix& x,
                                             const WhiteningOptions& options) {
  if (x.rows() < 2) {
    return Status::InvalidArgument("FitWhitening: need at least 2 rows");
  }
  // Fitting on non-finite embeddings produces a non-finite phi that then
  // corrupts every downstream encoder; abort at the source instead.
  WR_CHECK_FINITE(x);
  Matrix sigma = options.ledoit_wolf
                     ? linalg::LedoitWolfCovariance(x)
                     : linalg::Covariance(x, options.epsilon);
  if (options.ledoit_wolf && options.epsilon > 0.0) {
    for (std::size_t i = 0; i < sigma.rows(); ++i) {
      sigma(i, i) += options.epsilon;
    }
  }
  return FitWhiteningFromMoments(linalg::ColumnMean(x), sigma, options);
}

Matrix ApplyWhitening(const FittedWhitening& w, const Matrix& x) {
  WR_CHECK_EQ(x.cols(), w.mean.size());
  Matrix centered = x;
  core::ParallelFor(0, centered.rows(), core::GrainForWork(centered.cols()),
                    [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      double* row = centered.RowPtr(r);
      for (std::size_t c = 0; c < centered.cols(); ++c) row[c] -= w.mean[c];
    }
  });
  // z_row = phi * centered_row  <=>  Z = centered * phi^T.
  Matrix z = linalg::MatMulTransB(centered, w.phi);
  WR_CHECK_FINITE(z);
  return z;
}

Status GroupWhitening::Fit(const Matrix& x, std::size_t groups,
                           WhiteningKind kind, double epsilon,
                           std::size_t rank) {
  if (groups == 0 || x.cols() % groups != 0) {
    return Status::InvalidArgument(
        "GroupWhitening: groups must divide feature dims");
  }
  if (rank > 0 && groups != 1) {
    return Status::InvalidArgument(
        "GroupWhitening: rank truncation requires groups == 1");
  }
  dims_ = x.cols();
  kind_ = kind;
  group_transforms_.clear();
  const std::size_t group_dim = x.cols() / groups;
  WhiteningOptions options;
  options.kind = kind;
  options.epsilon = epsilon;
  options.rank = rank;
  for (std::size_t g = 0; g < groups; ++g) {
    const Matrix block = x.ColSlice(g * group_dim, (g + 1) * group_dim);
    Result<FittedWhitening> fitted = FitWhiteningAdvanced(block, options);
    if (!fitted.ok()) return fitted.status();
    group_transforms_.push_back(std::move(fitted).ValueOrDie());
  }
  return Status::OK();
}

Matrix GroupWhitening::Apply(const Matrix& x) const {
  WR_CHECK_MSG(fitted(), "GroupWhitening::Apply before Fit");
  WR_CHECK_EQ(x.cols(), dims_);
  const std::size_t group_dim = dims_ / group_transforms_.size();
  // Output width follows the fitted transforms: group_dim per group for
  // full-rank fits, the truncation rank for a rank-truncated single group.
  std::size_t out_dims = 0;
  for (const FittedWhitening& t : group_transforms_) out_dims += t.out_dims();
  Matrix out(x.rows(), out_dims);
  std::size_t out_col = 0;
  for (std::size_t g = 0; g < group_transforms_.size(); ++g) {
    const Matrix block = x.ColSlice(g * group_dim, (g + 1) * group_dim);
    out.SetColSlice(out_col, ApplyWhitening(group_transforms_[g], block));
    out_col += group_transforms_[g].out_dims();
  }
  return out;
}

Result<Matrix> WhitenMatrix(const Matrix& x, std::size_t groups,
                            WhiteningKind kind, double epsilon,
                            std::size_t rank) {
  GroupWhitening gw;
  Status st = gw.Fit(x, groups, kind, epsilon, rank);
  if (!st.ok()) return st;
  return gw.Apply(x);
}

IsotropyDiagnostics MeasureIsotropy(const Matrix& z) {
  const Matrix cov = linalg::Covariance(z);
  IsotropyDiagnostics d{0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < cov.rows(); ++i) {
    for (std::size_t j = 0; j < cov.cols(); ++j) {
      const double v = cov(i, j);
      if (i == j) {
        d.max_diag_error = std::max(d.max_diag_error, std::fabs(v - 1.0));
      } else {
        d.max_offdiag_cov = std::max(d.max_offdiag_cov, std::fabs(v));
      }
    }
  }
  double norm_sum = 0.0;
  for (std::size_t r = 0; r < z.rows(); ++r) {
    norm_sum += linalg::Norm(z.Row(r));
  }
  d.mean_norm = norm_sum / static_cast<double>(z.rows());
  return d;
}

}  // namespace whitenrec
