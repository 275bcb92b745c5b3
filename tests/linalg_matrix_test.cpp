#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace appclass::linalg {
namespace {

TEST(Matrix, DefaultConstructedIsEmpty) {
  const Matrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(Matrix, FillConstruction) {
  const Matrix m(2, 3, 7.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(m.at(r, c), 7.5);
}

TEST(Matrix, InitializerListConstruction) {
  const Matrix m{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m.at(2, 1), 6.0);
}

TEST(Matrix, FromRowsTakesOwnership) {
  const Matrix m = Matrix::from_rows(2, 2, {1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(m.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 3.0);
}

TEST(Matrix, IdentityHasOnesOnDiagonal) {
  const Matrix i = Matrix::identity(4);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c)
      EXPECT_DOUBLE_EQ(i.at(r, c), r == c ? 1.0 : 0.0);
}

TEST(Matrix, RowSpanAliasesStorage) {
  Matrix m(2, 3, 0.0);
  auto row = m.row(1);
  row[2] = 42.0;
  EXPECT_DOUBLE_EQ(m.at(1, 2), 42.0);
}

TEST(Matrix, AppendRowGrowsAndDefinesShape) {
  Matrix m;
  const std::vector<double> r0 = {1, 2, 3};
  const std::vector<double> r1 = {4, 5, 6};
  m.append_row(r0);
  m.append_row(r1);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 6.0);
}

TEST(Matrix, TransposeSwapsIndices) {
  const Matrix m{{1, 2, 3}, {4, 5, 6}};
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_DOUBLE_EQ(t.at(c, r), m.at(r, c));
}

TEST(Matrix, TransposeIsInvolution) {
  const Matrix m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.transposed().transposed(), m);
}

TEST(Matrix, MultiplyKnownProduct) {
  const Matrix a{{1, 2}, {3, 4}};
  const Matrix b{{5, 6}, {7, 8}};
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c.at(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 50.0);
}

TEST(Matrix, MultiplyByIdentityIsNoop) {
  const Matrix a{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(a * Matrix::identity(3), a);
  EXPECT_EQ(Matrix::identity(2) * a, a);
}

TEST(Matrix, MultiplyRectangularShapes) {
  const Matrix a(3, 5, 1.0);
  const Matrix b(5, 2, 2.0);
  const Matrix c = a * b;
  EXPECT_EQ(c.rows(), 3u);
  EXPECT_EQ(c.cols(), 2u);
  EXPECT_DOUBLE_EQ(c.at(2, 1), 10.0);
}

TEST(Matrix, MatrixVectorProduct) {
  const Matrix a{{1, 2}, {3, 4}};
  const std::vector<double> v = {5, 6};
  const std::vector<double> out = a.multiply(v);
  EXPECT_DOUBLE_EQ(out[0], 17.0);
  EXPECT_DOUBLE_EQ(out[1], 39.0);
}

TEST(Matrix, Scaling) {
  const Matrix a{{1, 2}, {3, 4}};
  EXPECT_EQ(a * 2.0, (Matrix{{2, 4}, {6, 8}}));
  EXPECT_EQ(2.0 * a, a * 2.0);
}

TEST(Matrix, MaxAbsDiff) {
  const Matrix a{{1, 2}, {3, 4}};
  Matrix b = a;
  b(1, 0) += 0.25;
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 0.25);
  EXPECT_DOUBLE_EQ(a.max_abs_diff(a), 0.0);
}

TEST(Matrix, FrobeniusNorm) {
  const Matrix a{{3, 0}, {0, 4}};
  EXPECT_DOUBLE_EQ(a.frobenius_norm(), 5.0);
}

TEST(Matrix, BlockExtractsSubmatrix) {
  const Matrix m{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
  const Matrix b = m.block(1, 1, 2, 2);
  EXPECT_EQ(b, (Matrix{{5, 6}, {8, 9}}));
}

TEST(VectorOps, EuclideanDistance) {
  const std::vector<double> a = {0, 0};
  const std::vector<double> b = {3, 4};
  EXPECT_DOUBLE_EQ(euclidean_distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(squared_distance(a, b), 25.0);
}

TEST(VectorOps, DotAndNorm) {
  const std::vector<double> a = {1, 2, 2};
  EXPECT_DOUBLE_EQ(dot(a, a), 9.0);
  EXPECT_DOUBLE_EQ(norm(a), 3.0);
}

TEST(VectorOps, DistanceIsSymmetric) {
  const std::vector<double> a = {1, 2, 3};
  const std::vector<double> b = {-1, 0, 7};
  EXPECT_DOUBLE_EQ(euclidean_distance(a, b), euclidean_distance(b, a));
}

TEST(VectorOps, TriangleInequalityHolds) {
  const std::vector<double> a = {0, 0, 1};
  const std::vector<double> b = {2, -1, 4};
  const std::vector<double> c = {5, 5, 5};
  EXPECT_LE(euclidean_distance(a, c),
            euclidean_distance(a, b) + euclidean_distance(b, c) + 1e-12);
}

}  // namespace
}  // namespace appclass::linalg
