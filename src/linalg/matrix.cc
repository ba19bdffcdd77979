#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>

#include "core/parallel.h"
#include "linalg/gemm.h"

namespace whitenrec {
namespace linalg {

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  WR_CHECK(!rows.empty());
  Matrix m(rows.size(), rows[0].size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    WR_CHECK_EQ(rows[r].size(), m.cols());
    std::copy(rows[r].begin(), rows[r].end(), m.RowPtr(r));
  }
  return m;
}

void Matrix::Fill(double v) { std::fill(data_.begin(), data_.end(), v); }

std::vector<double> Matrix::Row(std::size_t r) const {
  WR_CHECK_LT(r, rows_);
  return std::vector<double>(RowPtr(r), RowPtr(r) + cols_);
}

std::vector<double> Matrix::Col(std::size_t c) const {
  WR_CHECK_LT(c, cols_);
  std::vector<double> out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

void Matrix::SetRow(std::size_t r, const std::vector<double>& v) {
  WR_CHECK_LT(r, rows_);
  WR_CHECK_EQ(v.size(), cols_);
  std::copy(v.begin(), v.end(), RowPtr(r));
}

void Matrix::AppendRow(const std::vector<double>& v) {
  WR_CHECK_EQ(v.size(), cols_);
  data_.insert(data_.end(), v.begin(), v.end());
  ++rows_;
}

Matrix Matrix::RowSlice(std::size_t begin, std::size_t end) const {
  WR_CHECK_LE(begin, end);
  WR_CHECK_LE(end, rows_);
  Matrix out(end - begin, cols_);
  std::copy(RowPtr(begin), RowPtr(begin) + (end - begin) * cols_, out.data());
  return out;
}

Matrix Matrix::ColSlice(std::size_t begin, std::size_t end) const {
  WR_CHECK_LE(begin, end);
  WR_CHECK_LE(end, cols_);
  Matrix out(rows_, end - begin);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* src = RowPtr(r) + begin;
    std::copy(src, src + (end - begin), out.RowPtr(r));
  }
  return out;
}

void Matrix::SetColSlice(std::size_t begin, const Matrix& block) {
  WR_CHECK_EQ(block.rows(), rows_);
  WR_CHECK_LE(begin + block.cols(), cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    std::copy(block.RowPtr(r), block.RowPtr(r) + block.cols(),
              RowPtr(r) + begin);
  }
}

Matrix& Matrix::operator+=(const Matrix& other) {
  WR_CHECK_EQ(rows_, other.rows_);
  WR_CHECK_EQ(cols_, other.cols_);
  double* a = data_.data();
  const double* b = other.data_.data();
  core::ParallelFor(0, data_.size(), core::GrainForWork(1),
                    [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) a[i] += b[i];
  });
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  WR_CHECK_EQ(rows_, other.rows_);
  WR_CHECK_EQ(cols_, other.cols_);
  double* a = data_.data();
  const double* b = other.data_.data();
  core::ParallelFor(0, data_.size(), core::GrainForWork(1),
                    [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) a[i] -= b[i];
  });
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  double* a = data_.data();
  core::ParallelFor(0, data_.size(), core::GrainForWork(1),
                    [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) a[i] *= s;
  });
  return *this;
}

double Matrix::FrobeniusNorm() const {
  double sum = 0.0;
  for (double v : data_) sum += v * v;
  return std::sqrt(sum);
}

double Matrix::MaxAbs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::fabs(v));
  return m;
}

// The GEMM kernels (reference loops and blocked kernels, dispatched by
// problem size) live in linalg/gemm.cc; the by-value entry points below
// forward to the destination-reusing versions there.

Matrix MatMul(const Matrix& a, const Matrix& b) {
  Matrix c;
  MatMulInto(a, b, &c);
  return c;
}

Matrix MatMulTransA(const Matrix& a, const Matrix& b) {
  Matrix c;
  MatMulTransAInto(a, b, &c);
  return c;
}

Matrix MatMulTransB(const Matrix& a, const Matrix& b) {
  Matrix c;
  MatMulTransBInto(a, b, &c);
  return c;
}

std::vector<double> MatVec(const Matrix& a, const std::vector<double>& x) {
  std::vector<double> y;
  MatVecInto(a, x, &y);
  return y;
}

// The elementwise ops below use the same deterministic static chunking as
// the GEMM paths: each output location is owned by exactly one chunk and no
// value depends on chunk boundaries, so results are bitwise identical at any
// thread count.

Matrix Transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  // Parallel over OUTPUT rows (source columns): each chunk owns whole rows
  // of t.
  core::ParallelFor(0, a.cols(), core::GrainForWork(a.rows()),
                    [&](std::size_t j0, std::size_t j1) {
    for (std::size_t j = j0; j < j1; ++j) {
      double* trow = t.RowPtr(j);
      for (std::size_t i = 0; i < a.rows(); ++i) trow[i] = a(i, j);
    }
  });
  return t;
}

Matrix Add(const Matrix& a, const Matrix& b) {
  Matrix c = a;
  c += b;
  return c;
}

Matrix Sub(const Matrix& a, const Matrix& b) {
  Matrix c = a;
  c -= b;
  return c;
}

Matrix Scale(const Matrix& a, double s) {
  Matrix c = a;
  c *= s;
  return c;
}

Matrix Hadamard(const Matrix& a, const Matrix& b) {
  WR_CHECK_EQ(a.rows(), b.rows());
  WR_CHECK_EQ(a.cols(), b.cols());
  Matrix c(a.rows(), a.cols());
  const double* ap = a.data();
  const double* bp = b.data();
  double* cp = c.data();
  core::ParallelFor(0, a.size(), core::GrainForWork(1),
                    [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) cp[i] = ap[i] * bp[i];
  });
  return c;
}

void Axpy(double s, const Matrix& b, Matrix* a) {
  WR_CHECK_EQ(a->rows(), b.rows());
  WR_CHECK_EQ(a->cols(), b.cols());
  double* ap = a->data();
  const double* bp = b.data();
  core::ParallelFor(0, b.size(), core::GrainForWork(1),
                    [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) ap[i] += s * bp[i];
  });
}

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  WR_CHECK_EQ(a.size(), b.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

double Norm(const std::vector<double>& a) { return std::sqrt(Dot(a, a)); }

}  // namespace linalg
}  // namespace whitenrec
