#include "linalg/eigen.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/random.hpp"

namespace appclass::linalg {
namespace {

Matrix random_symmetric(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) {
      const double v = rng.normal(0.0, 2.0);
      a(i, j) = v;
      a(j, i) = v;
    }
  return a;
}

TEST(Eigen, DiagonalMatrixEigenvaluesAreDiagonal) {
  const Matrix a{{3, 0, 0}, {0, 1, 0}, {0, 0, 2}};
  const auto eig = symmetric_eigen(a);
  ASSERT_EQ(eig.eigenvalues.size(), 3u);
  EXPECT_NEAR(eig.eigenvalues[0], 3.0, 1e-12);
  EXPECT_NEAR(eig.eigenvalues[1], 2.0, 1e-12);
  EXPECT_NEAR(eig.eigenvalues[2], 1.0, 1e-12);
}

TEST(Eigen, Known2x2) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  const Matrix a{{2, 1}, {1, 2}};
  const auto eig = symmetric_eigen(a);
  EXPECT_NEAR(eig.eigenvalues[0], 3.0, 1e-12);
  EXPECT_NEAR(eig.eigenvalues[1], 1.0, 1e-12);
  // Eigenvector of 3 is (1,1)/sqrt(2) up to sign convention.
  const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(std::abs(eig.eigenvectors(0, 0)), inv_sqrt2, 1e-12);
  EXPECT_NEAR(std::abs(eig.eigenvectors(1, 0)), inv_sqrt2, 1e-12);
}

TEST(Eigen, IdentityYieldsAllOnes) {
  const auto eig = symmetric_eigen(Matrix::identity(5));
  for (double v : eig.eigenvalues) EXPECT_NEAR(v, 1.0, 1e-12);
}

TEST(Eigen, EigenvaluesSortedDescending) {
  const auto eig = symmetric_eigen(random_symmetric(7, 11));
  for (std::size_t i = 0; i + 1 < eig.eigenvalues.size(); ++i)
    EXPECT_GE(eig.eigenvalues[i], eig.eigenvalues[i + 1]);
}

TEST(Eigen, TraceEqualsEigenvalueSum) {
  const Matrix a = random_symmetric(6, 3);
  const auto eig = symmetric_eigen(a);
  double trace = 0.0, sum = 0.0;
  for (std::size_t i = 0; i < 6; ++i) trace += a(i, i);
  for (double v : eig.eigenvalues) sum += v;
  EXPECT_NEAR(trace, sum, 1e-9);
}

TEST(Eigen, SignConventionLargestComponentPositive) {
  const auto eig = symmetric_eigen(random_symmetric(5, 17));
  for (std::size_t j = 0; j < 5; ++j) {
    double amax = 0.0;
    double chosen = 0.0;
    for (std::size_t i = 0; i < 5; ++i)
      if (std::abs(eig.eigenvectors(i, j)) > amax) {
        amax = std::abs(eig.eigenvectors(i, j));
        chosen = eig.eigenvectors(i, j);
      }
    EXPECT_GT(chosen, 0.0);
  }
}

TEST(Eigen, OffDiagonalNormOfDiagonalIsZero) {
  EXPECT_DOUBLE_EQ(off_diagonal_norm(Matrix::identity(4)), 0.0);
  const Matrix a{{1, 2}, {2, 1}};
  EXPECT_NEAR(off_diagonal_norm(a), std::sqrt(8.0), 1e-12);
}

TEST(Eigen, AbsorbsRoundoffAsymmetry) {
  Matrix a{{2, 1}, {1, 2}};
  a(0, 1) += 1e-14;  // slightly non-symmetric input
  const auto eig = symmetric_eigen(a);
  EXPECT_NEAR(eig.eigenvalues[0], 3.0, 1e-9);
}

/// Property sweep across sizes: orthonormality and reconstruction.
class EigenProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigenProperty, EigenvectorsOrthonormal) {
  const std::size_t n = GetParam();
  const auto eig = symmetric_eigen(random_symmetric(n, 100 + n));
  const Matrix vtv =
      eig.eigenvectors.transposed() * eig.eigenvectors;
  EXPECT_LT(vtv.max_abs_diff(Matrix::identity(n)), 1e-9);
}

TEST_P(EigenProperty, ReconstructsInput) {
  const std::size_t n = GetParam();
  const Matrix a = random_symmetric(n, 200 + n);
  const auto eig = symmetric_eigen(a);
  Matrix lambda(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) lambda(i, i) = eig.eigenvalues[i];
  const Matrix restored =
      eig.eigenvectors * lambda * eig.eigenvectors.transposed();
  EXPECT_LT(restored.max_abs_diff(a), 1e-8);
}

TEST_P(EigenProperty, EigenpairsSatisfyDefinition) {
  const std::size_t n = GetParam();
  const Matrix a = random_symmetric(n, 300 + n);
  const auto eig = symmetric_eigen(a);
  const Matrix columns = eig.eigenvectors.transposed();
  for (std::size_t j = 0; j < n; ++j) {
    const std::span<const double> v = columns.row(j);
    const std::vector<double> av = a.multiply(v);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(av[i], eig.eigenvalues[j] * v[i], 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 8u, 12u, 20u));

}  // namespace
}  // namespace appclass::linalg
