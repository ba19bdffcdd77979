#ifndef WHITENREC_LINALG_MATRIX_H_
#define WHITENREC_LINALG_MATRIX_H_

#include <cstddef>
#include <vector>

#include "core/check.h"

namespace whitenrec {
namespace linalg {

// Dense row-major matrix of doubles. The convention throughout this library
// is rows = samples (items/users/positions), cols = feature dimensions; this
// is the transpose of the paper's X in R^{d_t x |I|} notation.
//
// Matrix is a value type: copyable and movable. Element access is bounds-
// checked in debug-style via WR_CHECK only on At(); operator() is unchecked
// for hot loops.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}
  Matrix(std::size_t rows, std::size_t cols, double fill)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix Identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
  }
  // Builds a matrix from a nested initializer-style vector (row per entry).
  static Matrix FromRows(const std::vector<std::vector<double>>& rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }
  // Heap bytes actually reserved. Resize() never shrinks the underlying
  // vector's capacity, so this is monotone between Release() calls — the
  // property Workspace::PeakBytes() relies on.
  std::size_t CapacityBytes() const {
    return data_.capacity() * sizeof(double);
  }
  // Frees the heap allocation (capacity drops to zero).
  void Release() {
    rows_ = 0;
    cols_ = 0;
    std::vector<double>().swap(data_);
  }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  double& At(std::size_t r, std::size_t c) {
    WR_CHECK_LT(r, rows_);
    WR_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }
  double At(std::size_t r, std::size_t c) const {
    WR_CHECK_LT(r, rows_);
    WR_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }

  double* RowPtr(std::size_t r) { return data_.data() + r * cols_; }
  const double* RowPtr(std::size_t r) const { return data_.data() + r * cols_; }
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  void Fill(double v);
  void SetZero() { Fill(0.0); }

  // Reshapes to (rows, cols) and zero-fills, reusing the existing heap
  // allocation when capacity allows. The workhorse behind Workspace slot
  // reuse on the training hot path.
  void Resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0);
  }

  // Returns the r-th row as a vector copy.
  std::vector<double> Row(std::size_t r) const;
  // Returns the c-th column as a vector copy.
  std::vector<double> Col(std::size_t c) const;
  // Overwrites the r-th row.
  void SetRow(std::size_t r, const std::vector<double>& v);
  // Appends `v` (length cols()) as a new last row. Amortized O(cols): the
  // storage grows geometrically, so n appends cost O(n * cols) in total.
  void AppendRow(const std::vector<double>& v);

  // Returns rows [begin, end) as a new matrix.
  Matrix RowSlice(std::size_t begin, std::size_t end) const;
  // Returns cols [begin, end) as a new matrix.
  Matrix ColSlice(std::size_t begin, std::size_t end) const;
  // Writes `block` into columns [begin, begin + block.cols()).
  void SetColSlice(std::size_t begin, const Matrix& block);

  // In-place elementwise operations.
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double s);

  // Frobenius norm and max |a_ij|.
  double FrobeniusNorm() const;
  double MaxAbs() const;

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> data_;
};

// C = A * B.
Matrix MatMul(const Matrix& a, const Matrix& b);
// C = A^T * B.
Matrix MatMulTransA(const Matrix& a, const Matrix& b);
// C = A * B^T.
Matrix MatMulTransB(const Matrix& a, const Matrix& b);
// y = A * x.
std::vector<double> MatVec(const Matrix& a, const std::vector<double>& x);
// Destination-reusing and accumulating variants (and the reference kernels
// the tests compare against) live in linalg/gemm.h; the by-value entry
// points above forward to them.

Matrix Transpose(const Matrix& a);
Matrix Add(const Matrix& a, const Matrix& b);
Matrix Sub(const Matrix& a, const Matrix& b);
Matrix Scale(const Matrix& a, double s);
// Elementwise product.
Matrix Hadamard(const Matrix& a, const Matrix& b);

// In-place: a += s * b (axpy).
void Axpy(double s, const Matrix& b, Matrix* a);

// Dot product of equal-length vectors.
double Dot(const std::vector<double>& a, const std::vector<double>& b);
// Euclidean norm.
double Norm(const std::vector<double>& a);

}  // namespace linalg
}  // namespace whitenrec

#endif  // WHITENREC_LINALG_MATRIX_H_
