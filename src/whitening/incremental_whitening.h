#ifndef WHITENREC_WHITENING_INCREMENTAL_WHITENING_H_
#define WHITENREC_WHITENING_INCREMENTAL_WHITENING_H_

#include "core/status.h"
#include "whitening/whitening.h"
#include "linalg/matrix.h"

namespace whitenrec {

// Streaming covariance accumulator for whitening (library extension beyond
// the paper). E-commerce catalogs grow daily; instead of re-scanning every
// item embedding to recompute the transform, this class maintains the exact
// running mean and co-moment matrix (per-row Welford updates) so the
// whitening transform can be refit in O(d^2) memory after each batch of new
// items.
//
//   IncrementalWhitening acc(d_t);
//   acc.Add(day1_embeddings);
//   acc.Add(day2_embeddings);                  // only the new rows
//   auto w = acc.Fit({.kind = WhiteningKind::kZca});
//   Matrix z = ApplyWhitening(w.value(), any_embeddings);
//
// Fit() produces results identical (to rounding) to FitWhiteningAdvanced on
// the concatenation of everything ever added.
class IncrementalWhitening {
 public:
  explicit IncrementalWhitening(std::size_t dims);

  std::size_t dims() const { return dims_; }
  std::size_t count() const { return count_; }

  // Accumulates rows (each row one item embedding with `dims` columns).
  void Add(const linalg::Matrix& rows);

  // Current mean / biased covariance of everything added so far.
  std::vector<double> Mean() const;
  Result<linalg::Matrix> CovarianceMatrix(double epsilon = 0.0) const;

  // Fits a whitening transform from the accumulated statistics. Requires
  // count() >= 2. Ledoit-Wolf is not available in streaming form (it needs
  // per-sample fourth moments), so options.ledoit_wolf must be false.
  Result<FittedWhitening> Fit(const WhiteningOptions& options) const;

 private:
  std::size_t dims_;
  std::size_t count_ = 0;
  std::vector<double> mean_;   // running mean
  linalg::Matrix comoment_;    // sum of (x - mean)(x - mean)^T
};

}  // namespace whitenrec

#endif  // WHITENREC_WHITENING_INCREMENTAL_WHITENING_H_
