#include "eval/conditioning.h"

#include "linalg/eigen.h"
#include "linalg/stats.h"

namespace whitenrec {
namespace eval {

double ItemEmbeddingConditionNumber(const linalg::Matrix& item_reps,
                                    double eigenvalue_floor) {
  const linalg::Matrix cov = linalg::Covariance(item_reps);
  Result<double> kappa = linalg::ConditionNumber(cov, eigenvalue_floor);
  if (!kappa.ok()) return 1e18;
  return kappa.value();
}

}  // namespace eval
}  // namespace whitenrec
