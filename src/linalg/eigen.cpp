#include "linalg/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace appclass::linalg {

double off_diagonal_norm(const Matrix& a) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      if (i != j) s += a(i, j) * a(i, j);
  return std::sqrt(s);
}

namespace {

/// Convergence threshold on the off-diagonal Frobenius norm, relative to
/// the norm of the input matrix.
constexpr double kTolerance = 1e-12;
/// Hard cap on sweeps; 8x8 covariance matrices converge in < 10.
constexpr int kMaxSweeps = 64;

/// Applies one Jacobi rotation zeroing a(p,q), updating `a` (symmetric) and
/// accumulating the rotation into `v`.
void rotate(Matrix& a, Matrix& v, std::size_t p, std::size_t q) {
  const double apq = a(p, q);
  if (apq == 0.0) return;
  const double app = a(p, p);
  const double aqq = a(q, q);
  const double theta = (aqq - app) / (2.0 * apq);
  // Stable computation of tan(phi) for the smaller rotation angle.
  const double t = (theta >= 0.0)
                       ? 1.0 / (theta + std::sqrt(1.0 + theta * theta))
                       : 1.0 / (theta - std::sqrt(1.0 + theta * theta));
  const double c = 1.0 / std::sqrt(1.0 + t * t);
  const double s = t * c;
  const double tau = s / (1.0 + c);

  a(p, p) = app - t * apq;
  a(q, q) = aqq + t * apq;
  a(p, q) = 0.0;
  a(q, p) = 0.0;

  const std::size_t n = a.rows();
  for (std::size_t i = 0; i < n; ++i) {
    if (i == p || i == q) continue;
    const double aip = a(i, p);
    const double aiq = a(i, q);
    a(i, p) = aip - s * (aiq + tau * aip);
    a(p, i) = a(i, p);
    a(i, q) = aiq + s * (aip - tau * aiq);
    a(q, i) = a(i, q);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double vip = v(i, p);
    const double viq = v(i, q);
    v(i, p) = vip - s * (viq + tau * vip);
    v(i, q) = viq + s * (vip - tau * viq);
  }
}

}  // namespace

EigenDecomposition symmetric_eigen(const Matrix& a) {
  APPCLASS_EXPECTS(a.rows() == a.cols());
  const std::size_t n = a.rows();

  // Symmetrize to absorb round-off asymmetry from covariance accumulation.
  Matrix work(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      work(i, j) = 0.5 * (a(i, j) + a(j, i));

  Matrix v = Matrix::identity(n);
  const double scale = std::max(work.frobenius_norm(), 1e-300);
  const double threshold = kTolerance * scale;

  int sweep = 0;
  for (; sweep < kMaxSweeps; ++sweep) {
    if (off_diagonal_norm(work) <= threshold) break;
    for (std::size_t p = 0; p + 1 < n; ++p)
      for (std::size_t q = p + 1; q < n; ++q)
        if (std::abs(work(p, q)) > threshold / static_cast<double>(n * n))
          rotate(work, v, p, q);
  }

  // Extract and sort eigenpairs by descending eigenvalue.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<double> evals(n);
  for (std::size_t i = 0; i < n; ++i) evals[i] = work(i, i);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) {
                     return evals[x] > evals[y];
                   });

  EigenDecomposition out;
  out.eigenvalues.resize(n);
  out.eigenvectors = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    out.eigenvalues[j] = evals[order[j]];
    for (std::size_t i = 0; i < n; ++i)
      out.eigenvectors(i, j) = v(i, order[j]);
  }
  // Deterministic sign convention: make the largest-magnitude entry of each
  // eigenvector positive so repeated runs and tests agree on orientation.
  for (std::size_t j = 0; j < n; ++j) {
    std::size_t imax = 0;
    double amax = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double m = std::abs(out.eigenvectors(i, j));
      if (m > amax) {
        amax = m;
        imax = i;
      }
    }
    if (out.eigenvectors(imax, j) < 0.0)
      for (std::size_t i = 0; i < n; ++i) out.eigenvectors(i, j) *= -1.0;
  }
  out.sweeps = sweep;
  return out;
}

}  // namespace appclass::linalg
