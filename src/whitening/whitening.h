#ifndef WHITENREC_WHITENING_WHITENING_H_
#define WHITENREC_WHITENING_WHITENING_H_

#include <cstddef>
#include <vector>

#include "core/status.h"
#include "linalg/matrix.h"

namespace whitenrec {

// Non-parametric whitening transforms (paper Sec. IV-A, Table VI).
//
// Given item text embeddings X (rows = items, cols = d_t dims; transpose of
// the paper's notation), a whitening transform computes Z = (X - 1 mu^T) Phi^T
// such that the sample covariance of Z is (approximately) the identity. The
// variants differ in Phi:
//   ZCA:  Phi = D Lambda^{-1/2} D^T   (rotates back to the original axes)
//   PCA:  Phi = Lambda^{-1/2} D^T     (leaves data in eigen-axes)
//   CD:   Phi = L^{-1}, Sigma = L L^T (Cholesky whitening)
//   BN:   Phi = diag(sigma_i^{-1})    (per-dimension standardization only;
//                                      does not decorrelate across dims)
enum class WhiteningKind {
  kZca,
  kPca,
  kCholesky,
  kBatchNorm,
};

const char* WhiteningKindName(WhiteningKind kind);

// A fitted whitening transform for one dimension group: the column means and
// the (k x d) matrix phi applied as z = phi * (x - mu). k == d for the full-
// rank fits; k < d for rank-truncated fits (WhiteningOptions::rank).
//
// spectrum holds the eigenvalues of the regularized covariance Sigma + eps I
// that a ZCA or PCA fit factored to build phi: all d of them, descending,
// also under rank truncation. Subtract eps to read the spectrum of Sigma
// itself (the serving refit guard does, DESIGN.md §13) without a second
// eigensolve. It is empty for CD, BN and Newton-Schulz fits, which never
// decompose Sigma.
struct FittedWhitening {
  std::vector<double> mean;
  linalg::Matrix phi;
  std::vector<double> spectrum;

  // Output dimensionality of the transform (phi rows).
  std::size_t out_dims() const { return phi.rows(); }
};

// Fits a whitening transform on X with covariance regularizer epsilon
// (Sigma = Cov(X) + epsilon I). Requires rows >= 2 and, for a full-rank
// covariance, rows >> cols (as the paper assumes |I| >> d_t).
Result<FittedWhitening> FitWhitening(const linalg::Matrix& x,
                                     WhiteningKind kind,
                                     double epsilon = 1e-5);

// Extended fitting controls (library extensions beyond the paper's setup;
// ablated by bench_ablation_whitening_estimators):
//  - ledoit_wolf: replace the fixed-epsilon ridge with the closed-form
//    Ledoit-Wolf shrinkage covariance — principled when the item count is
//    not much larger than d_t (cold-start-sized fits).
//  - newton_iterations > 0: compute the ZCA map Sigma^{-1/2} with the
//    coupled Newton-Schulz iteration (the DBN trick) instead of an exact
//    eigensolve; only valid for kZca.
//  - rank > 0: keep only the top-`rank` whitened dimensions (the
//    whitening-k trick): phi becomes the (rank x d) map
//    Lambda_k^{-1/2} D_k^T over the largest-eigenvalue directions, so
//    z = phi (x - mu) lives in R^rank. The eigendecomposition the full fit
//    already pays for makes this free, and because SymmetricEigen orders
//    eigenvalues descending, the truncated phi is exactly the leading rows
//    of the full-rank PCA phi. Only kZca and kPca accept rank (a rotated-
//    back ZCA output would stay d-dimensional, defeating the truncation;
//    under truncation both kinds yield the PCA-basis map — an orthogonal
//    rotation of coordinates the learned projection head absorbs).
//    rank == 0 or rank == d is the untouched full-rank path.
struct WhiteningOptions {
  WhiteningKind kind = WhiteningKind::kZca;
  double epsilon = 1e-5;
  bool ledoit_wolf = false;
  int newton_iterations = 0;  // 0 = exact eigensolve
  std::size_t rank = 0;       // 0 = full rank (no truncation)
};

Result<FittedWhitening> FitWhiteningAdvanced(const linalg::Matrix& x,
                                             const WhiteningOptions& options);

// Fits phi from already-estimated moments: `mean` and the (regularized)
// covariance `sigma`. This is the single implementation behind both the
// batch path (FitWhiteningAdvanced, which estimates moments from rows) and
// the streaming path (IncrementalWhitening::Fit, which maintains them with
// Welford updates) — sharing it makes batch-vs-incremental agreement
// structural, including under rank truncation. `options.ledoit_wolf` is
// ignored here (shrinkage happens while estimating sigma).
Result<FittedWhitening> FitWhiteningFromMoments(std::vector<double> mean,
                                                const linalg::Matrix& sigma,
                                                const WhiteningOptions& options);

// Applies a fitted transform: Z = (X - 1 mu^T) phi^T.
linalg::Matrix ApplyWhitening(const FittedWhitening& w,
                              const linalg::Matrix& x);

// Group (relaxed) whitening, paper Eq. 5: the d_t feature dimensions are
// sliced into `groups` contiguous blocks and each block is whitened
// independently, so correlation *between* groups is preserved. groups == 1
// is full whitening; groups == d_t degenerates to per-dimension BN-style
// scaling (when kind decorrelates within a 1-wide group, it is just 1/sigma).
//
// The fitted object supports Apply() on new rows (e.g. cold-start items that
// were not part of the fit), which simply reuses the stored per-group
// mean/phi.
class GroupWhitening {
 public:
  GroupWhitening() = default;

  // Fits on X. `groups` must divide x.cols(). rank > 0 truncates to the
  // top-`rank` whitened dimensions and requires groups == 1 (a per-group
  // truncation would change every group's output width; the relaxed branch
  // exists precisely to keep cross-group correlation, which truncation
  // would discard asymmetrically).
  Status Fit(const linalg::Matrix& x, std::size_t groups, WhiteningKind kind,
             double epsilon = 1e-5, std::size_t rank = 0);

  bool fitted() const { return !group_transforms_.empty(); }
  std::size_t groups() const { return group_transforms_.size(); }
  std::size_t dims() const { return dims_; }
  WhiteningKind kind() const { return kind_; }

  // Applies the fitted transform to X (same column count as the fit input).
  linalg::Matrix Apply(const linalg::Matrix& x) const;

 private:
  std::size_t dims_ = 0;
  WhiteningKind kind_ = WhiteningKind::kZca;
  std::vector<FittedWhitening> group_transforms_;
};

// Convenience: fit-and-apply in one call (the precomputation path used by
// WhitenRec; transforms are computed once before training, Sec. IV-E).
// rank > 0 requires groups == 1 (see GroupWhitening::Fit) and yields an
// (n x rank) output.
Result<linalg::Matrix> WhitenMatrix(const linalg::Matrix& x,
                                    std::size_t groups, WhiteningKind kind,
                                    double epsilon = 1e-5,
                                    std::size_t rank = 0);

// Diagnostics asserting isotropy of a whitened matrix.
struct IsotropyDiagnostics {
  double max_offdiag_cov;   // max |Cov_ij|, i != j
  double max_diag_error;    // max |Cov_ii - 1|
  double mean_norm;         // mean row L2 norm
};
IsotropyDiagnostics MeasureIsotropy(const linalg::Matrix& z);

}  // namespace whitenrec

#endif  // WHITENREC_WHITENING_WHITENING_H_
