// Column statistics and the zero-mean / unit-variance normalization used by
// the paper's data preprocessor, plus covariance/scatter matrices for PCA.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace appclass::linalg {

/// Per-column mean/stddev pair, stored so that the normalization fitted on
/// training data can be replayed verbatim on test data.
struct ColumnStats {
  std::vector<double> mean;
  std::vector<double> stddev;  // population stddev, floored at `min_stddev`

  std::size_t dims() const noexcept { return mean.size(); }
};

/// Mean of a single series.
double mean(std::span<const double> v);

/// Population variance of a single series (divides by N).
double variance(std::span<const double> v);

double stddev(std::span<const double> v);

/// Computes per-column mean and stddev of `samples` (one observation per
/// row). Columns with stddev below `min_stddev` are floored to `min_stddev`
/// so constant features normalize to zero instead of dividing by zero —
/// exactly the degenerate case an idle metric (e.g. swap traffic on a
/// CPU-bound run) produces.
ColumnStats column_stats(const Matrix& samples, double min_stddev = 1e-12);

/// Returns a copy of `samples` with each column shifted/scaled by `stats`
/// ((x - mean) / stddev). `stats.dims()` must equal `samples.cols()`.
Matrix normalize(const Matrix& samples, const ColumnStats& stats);

/// Normalizes one observation in place using `stats`.
void normalize_row(std::span<double> row, const ColumnStats& stats);

/// Covariance matrix of `samples` (observations in rows, features in
/// columns). Uses the N-1 (sample) denominator; requires >= 2 rows.
Matrix covariance(const Matrix& samples);

/// Scatter matrix: covariance times (N-1); the paper's PCA operates on the
/// scatter matrix of the normalized snapshots (the two share eigenvectors).
Matrix scatter(const Matrix& samples);

/// Pearson correlation between two equal-length series; returns 0 when
/// either series is constant.
double correlation(std::span<const double> a, std::span<const double> b);

/// Streaming mean/variance accumulator (Welford). Used by the simulator's
/// per-run statistical abstracts and by the application database.
class RunningStats {
 public:
  void add(double x) noexcept;
  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ == 0 ? 0.0 : mean_; }
  /// Population variance of the values seen so far.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }
  /// Merges another accumulator (parallel Welford combination).
  void merge(const RunningStats& other) noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace appclass::linalg
