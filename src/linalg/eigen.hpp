// Symmetric eigendecomposition via the cyclic Jacobi rotation method.
//
// PCA over the paper's 8-metric feature space needs the eigensystem of an
// 8x8 covariance matrix; Jacobi is exact (to round-off), unconditionally
// stable for symmetric input, and dependency-free, which is why it is used
// here instead of an external LAPACK/Eigen dependency.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace appclass::linalg {

/// Result of a symmetric eigendecomposition.
///
/// Invariants established by `symmetric_eigen`:
///   * `eigenvalues` are sorted in descending order;
///   * column j of `eigenvectors` is the unit-norm eigenvector paired with
///     `eigenvalues[j]`;
///   * `eigenvectors` is orthonormal: Vᵀ V = I (to round-off).
struct EigenDecomposition {
  std::vector<double> eigenvalues;
  Matrix eigenvectors;  // one eigenvector per column
  int sweeps = 0;       // Jacobi sweeps actually performed
};

/// Computes the full eigensystem of a symmetric matrix `a` using cyclic
/// Jacobi rotations.
///
/// Preconditions: `a` is square and numerically symmetric (the routine
/// symmetrizes (a+aᵀ)/2 internally to absorb round-off asymmetry, but a
/// grossly non-symmetric input is a contract violation). Iterates until the
/// off-diagonal norm falls to 1e-12 of the input's Frobenius norm, or for
/// at most 64 sweeps.
EigenDecomposition symmetric_eigen(const Matrix& a);

/// Frobenius norm of the off-diagonal part (sqrt of the sum of a(i,j)^2
/// for i != j) — the Jacobi convergence functional.
double off_diagonal_norm(const Matrix& a);

}  // namespace appclass::linalg
