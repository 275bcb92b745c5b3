#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>

namespace appclass::linalg {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = init.size();
  cols_ = rows_ == 0 ? 0 : init.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    APPCLASS_EXPECTS(row.size() == cols_);
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::from_rows(std::size_t rows, std::size_t cols,
                         std::vector<double> data) {
  APPCLASS_EXPECTS(data.size() == rows * cols);
  Matrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.data_ = std::move(data);
  return m;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

void Matrix::append_row(std::span<const double> values) {
  if (rows_ == 0 && cols_ == 0) cols_ = values.size();
  APPCLASS_EXPECTS(values.size() == cols_);
  data_.insert(data_.end(), values.begin(), values.end());
  ++rows_;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix Matrix::multiply(const Matrix& rhs) const {
  APPCLASS_EXPECTS(cols_ == rhs.rows_);
  Matrix out(rows_, rhs.cols_, 0.0);
  // i-k-j loop order keeps the inner loop contiguous in both rhs and out.
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(i, k);
      if (a == 0.0) continue;
      const double* rhs_row = rhs.data_.data() + k * rhs.cols_;
      double* out_row = out.data_.data() + i * rhs.cols_;
      for (std::size_t j = 0; j < rhs.cols_; ++j) out_row[j] += a * rhs_row[j];
    }
  }
  return out;
}

std::vector<double> Matrix::multiply(std::span<const double> v) const {
  APPCLASS_EXPECTS(v.size() == cols_);
  std::vector<double> out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = dot(row(r), v);
  return out;
}

Matrix& Matrix::operator*=(double s) {
  for (double& x : data_) x *= s;
  return *this;
}

double Matrix::max_abs_diff(const Matrix& rhs) const {
  APPCLASS_EXPECTS(rows_ == rhs.rows_ && cols_ == rhs.cols_);
  double m = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i)
    m = std::max(m, std::abs(data_[i] - rhs.data_[i]));
  return m;
}

double Matrix::frobenius_norm() const {
  double s = 0.0;
  for (double x : data_) s += x * x;
  return std::sqrt(s);
}

Matrix Matrix::block(std::size_t r0, std::size_t c0, std::size_t nr,
                     std::size_t nc) const {
  APPCLASS_EXPECTS(r0 + nr <= rows_ && c0 + nc <= cols_);
  Matrix out(nr, nc);
  for (std::size_t r = 0; r < nr; ++r)
    for (std::size_t c = 0; c < nc; ++c) out(r, c) = (*this)(r0 + r, c0 + c);
  return out;
}

double squared_distance(std::span<const double> a, std::span<const double> b) {
  APPCLASS_EXPECTS(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

double euclidean_distance(std::span<const double> a,
                          std::span<const double> b) {
  return std::sqrt(squared_distance(a, b));
}

double dot(std::span<const double> a, std::span<const double> b) {
  APPCLASS_EXPECTS(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm(std::span<const double> v) { return std::sqrt(dot(v, v)); }

}  // namespace appclass::linalg
