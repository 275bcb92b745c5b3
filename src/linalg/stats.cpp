#include "linalg/stats.hpp"

#include <algorithm>
#include <cmath>

namespace appclass::linalg {

double mean(std::span<const double> v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double variance(std::span<const double> v) {
  if (v.empty()) return 0.0;
  const double m = mean(v);
  double s = 0.0;
  for (double x : v) s += (x - m) * (x - m);
  return s / static_cast<double>(v.size());
}

double stddev(std::span<const double> v) { return std::sqrt(variance(v)); }

ColumnStats column_stats(const Matrix& samples, double min_stddev) {
  APPCLASS_EXPECTS(samples.rows() >= 1);
  const std::size_t n = samples.rows();
  const std::size_t d = samples.cols();
  ColumnStats out;
  out.mean.assign(d, 0.0);
  out.stddev.assign(d, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    auto row = samples.row(r);
    for (std::size_t c = 0; c < d; ++c) out.mean[c] += row[c];
  }
  for (double& m : out.mean) m /= static_cast<double>(n);
  for (std::size_t r = 0; r < n; ++r) {
    auto row = samples.row(r);
    for (std::size_t c = 0; c < d; ++c) {
      const double dx = row[c] - out.mean[c];
      out.stddev[c] += dx * dx;
    }
  }
  for (double& s : out.stddev)
    s = std::max(std::sqrt(s / static_cast<double>(n)), min_stddev);
  return out;
}

Matrix normalize(const Matrix& samples, const ColumnStats& stats) {
  APPCLASS_EXPECTS(stats.dims() == samples.cols());
  Matrix out = samples;
  for (std::size_t r = 0; r < out.rows(); ++r) normalize_row(out.row(r), stats);
  return out;
}

void normalize_row(std::span<double> row, const ColumnStats& stats) {
  APPCLASS_EXPECTS(row.size() == stats.dims());
  for (std::size_t c = 0; c < row.size(); ++c)
    row[c] = (row[c] - stats.mean[c]) / stats.stddev[c];
}

Matrix covariance(const Matrix& samples) {
  APPCLASS_EXPECTS(samples.rows() >= 2);
  const std::size_t n = samples.rows();
  Matrix s = scatter(samples);
  s *= 1.0 / static_cast<double>(n - 1);
  return s;
}

Matrix scatter(const Matrix& samples) {
  APPCLASS_EXPECTS(samples.rows() >= 1);
  const std::size_t n = samples.rows();
  const std::size_t d = samples.cols();
  const ColumnStats cs = column_stats(samples, 0.0);
  Matrix s(d, d, 0.0);
  std::vector<double> centered(d);
  for (std::size_t r = 0; r < n; ++r) {
    auto row = samples.row(r);
    for (std::size_t c = 0; c < d; ++c) centered[c] = row[c] - cs.mean[c];
    for (std::size_t i = 0; i < d; ++i) {
      const double ci = centered[i];
      if (ci == 0.0) continue;
      for (std::size_t j = i; j < d; ++j) s(i, j) += ci * centered[j];
    }
  }
  for (std::size_t i = 0; i < d; ++i)
    for (std::size_t j = 0; j < i; ++j) s(i, j) = s(j, i);
  return s;
}

double correlation(std::span<const double> a, std::span<const double> b) {
  APPCLASS_EXPECTS(a.size() == b.size());
  if (a.size() < 2) return 0.0;
  const double ma = mean(a);
  const double mb = mean(b);
  double sab = 0.0, saa = 0.0, sbb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    sab += da * db;
    saa += da * da;
    sbb += db * db;
  }
  if (saa == 0.0 || sbb == 0.0) return 0.0;
  return sab / std::sqrt(saa * sbb);
}

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  return n_ == 0 ? 0.0 : m2_ / static_cast<double>(n_);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

}  // namespace appclass::linalg
