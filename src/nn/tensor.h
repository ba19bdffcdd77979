#ifndef WHITENREC_NN_TENSOR_H_
#define WHITENREC_NN_TENSOR_H_

#include <vector>

#include "linalg/matrix.h"

namespace whitenrec {
namespace nn {

// The nn library reuses linalg::Matrix as its tensor type: activations are
// 2-D matrices of shape (batch * seq_len, dim) or (batch, dim). This header
// provides the row-wise kernels shared by layers and losses.

// In-place row-wise softmax (numerically stable).
void RowSoftmaxInPlace(linalg::Matrix* m);

// Softmax backward for one row: given the softmax output `p` and upstream
// gradient `dp` over the same row, writes ds = p .* (dp - sum(dp .* p)).
void SoftmaxBackwardRow(const double* p, const double* dp, std::size_t n,
                        double* ds);

// Sum of each column: returns a vector of length m.cols().
std::vector<double> ColumnSum(const linalg::Matrix& m);

// L2-normalizes each row in place (rows with ~0 norm are left unchanged).
void RowL2NormalizeInPlace(linalg::Matrix* m);

// Gathers rows of `table` by index into a new matrix.
linalg::Matrix GatherRows(const linalg::Matrix& table,
                          const std::vector<std::size_t>& indices);

// Zeroes every row r of *x whose mask[r] is 0.0 (a padded position), in
// the forward and the backward of an input layer alike.
void ZeroMaskedRows(const std::vector<double>& mask, linalg::Matrix* x);

// Scatter-add: for each k, grad_table->row(indices[k]) += grads.row(k).
void ScatterAddRows(const linalg::Matrix& grads,
                    const std::vector<std::size_t>& indices,
                    linalg::Matrix* grad_table);

}  // namespace nn
}  // namespace whitenrec

#endif  // WHITENREC_NN_TENSOR_H_
