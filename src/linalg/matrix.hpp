// Dense row-major matrix of doubles.
//
// This is the only linear-algebra container used by the classification
// pipeline. It is deliberately small: the paper's data sets are on the order
// of 10^1 metrics by 10^3..10^4 snapshots, so a simple contiguous row-major
// buffer with bounds-checked accessors is both fast enough and easy to audit.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/assert.hpp"

namespace appclass::linalg {

/// Dense row-major matrix of `double`.
///
/// Rows index observations or metrics depending on the caller's convention;
/// the classification pipeline documents its orientation at each step
/// (the paper's A(n x m) stores one metric per row, one snapshot per column).
class Matrix {
 public:
  /// Creates an empty 0x0 matrix.
  Matrix() = default;

  /// Creates a `rows x cols` matrix with every element set to `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Creates a matrix from a nested initializer list; all rows must have the
  /// same length.
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  /// Builds a matrix from `rows` contiguous rows stored in `data`
  /// (size must be rows*cols).
  static Matrix from_rows(std::size_t rows, std::size_t cols,
                          std::vector<double> data);

  /// Returns the `n x n` identity matrix.
  static Matrix identity(std::size_t n);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  /// Bounds-checked element access.
  double& at(std::size_t r, std::size_t c) {
    APPCLASS_EXPECTS(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double at(std::size_t r, std::size_t c) const {
    APPCLASS_EXPECTS(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Unchecked element access for hot loops (still asserted in debug builds).
  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  /// Contiguous view of row `r`.
  std::span<double> row(std::size_t r) {
    APPCLASS_EXPECTS(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const {
    APPCLASS_EXPECTS(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  /// Appends one row (size must equal cols(), or define cols() if empty).
  void append_row(std::span<const double> values);

  /// Underlying contiguous storage, row-major.
  std::span<const double> data() const noexcept { return data_; }
  std::span<double> data() noexcept { return data_; }

  Matrix transposed() const;

  /// Matrix product `*this * rhs`. Dimensions must agree.
  Matrix multiply(const Matrix& rhs) const;

  /// Matrix-vector product (vector length must equal cols()).
  std::vector<double> multiply(std::span<const double> v) const;

  Matrix& operator*=(double s);

  friend Matrix operator*(Matrix lhs, double s) { return lhs *= s; }
  friend Matrix operator*(double s, Matrix rhs) { return rhs *= s; }
  friend Matrix operator*(const Matrix& lhs, const Matrix& rhs) {
    return lhs.multiply(rhs);
  }

  bool operator==(const Matrix& rhs) const = default;

  /// Largest absolute element difference against `rhs` (same shape required).
  double max_abs_diff(const Matrix& rhs) const;

  /// Frobenius norm (sqrt of sum of squares of all elements).
  double frobenius_norm() const;

  /// Sub-matrix copy: rows [r0, r0+nr) x cols [c0, c0+nc).
  Matrix block(std::size_t r0, std::size_t c0, std::size_t nr,
               std::size_t nc) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Euclidean (L2) distance between two equal-length vectors.
double euclidean_distance(std::span<const double> a, std::span<const double> b);

/// Squared Euclidean distance (avoids the sqrt in nearest-neighbour loops).
double squared_distance(std::span<const double> a, std::span<const double> b);

/// Dot product of two equal-length vectors.
double dot(std::span<const double> a, std::span<const double> b);

/// L2 norm of a vector.
double norm(std::span<const double> v);

}  // namespace appclass::linalg
