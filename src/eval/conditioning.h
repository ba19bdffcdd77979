#ifndef WHITENREC_EVAL_CONDITIONING_H_
#define WHITENREC_EVAL_CONDITIONING_H_

#include "linalg/matrix.h"

namespace whitenrec {
namespace eval {

// Conditioning analysis (paper Sec. IV-D2): the condition number
// kappa = lambda_max / lambda_min of the covariance of the projected item
// embedding matrix V. Well-conditioned (small kappa) covariances make the
// optimization landscape easier; ill-conditioned ones destabilize training.
// Returns kappa, or +inf surrogate (1e18) if the eigensolve fails. (The
// serving refit guard reads its kappa from the spectrum the whitening fit
// already factored, FittedWhitening::spectrum, not from here.)
double ItemEmbeddingConditionNumber(const linalg::Matrix& item_reps,
                                    double eigenvalue_floor = 1e-10);

}  // namespace eval
}  // namespace whitenrec

#endif  // WHITENREC_EVAL_CONDITIONING_H_
