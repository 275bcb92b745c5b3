#include "linalg/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "linalg/random.hpp"

namespace appclass::linalg {
namespace {

TEST(Stats, MeanOfKnownSeries) {
  const std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
}

TEST(Stats, MeanOfEmptyIsZero) {
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Stats, PopulationVariance) {
  const std::vector<double> v = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(variance(v), 4.0);
  EXPECT_DOUBLE_EQ(stddev(v), 2.0);
}

TEST(Stats, ColumnStatsPerColumn) {
  const Matrix m{{1, 10}, {3, 10}};
  const ColumnStats cs = column_stats(m);
  EXPECT_DOUBLE_EQ(cs.mean[0], 2.0);
  EXPECT_DOUBLE_EQ(cs.mean[1], 10.0);
  EXPECT_DOUBLE_EQ(cs.stddev[0], 1.0);
}

TEST(Stats, ConstantColumnFlooredNotDivByZero) {
  const Matrix m{{5, 1}, {5, 2}};
  const ColumnStats cs = column_stats(m);
  EXPECT_GT(cs.stddev[0], 0.0);
  const Matrix n = normalize(m, cs);
  EXPECT_DOUBLE_EQ(n.at(0, 0), 0.0);  // constant column maps to zero
  EXPECT_DOUBLE_EQ(n.at(1, 0), 0.0);
}

TEST(Stats, NormalizeGivesZeroMeanUnitVariance) {
  Rng rng(5);
  Matrix m(200, 3);
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c)
      m(r, c) = rng.normal(5.0 * static_cast<double>(c + 1), 2.0);
  const ColumnStats cs = column_stats(m);
  const Matrix n = normalize(m, cs);
  const ColumnStats after = column_stats(n);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(after.mean[c], 0.0, 1e-9);
    EXPECT_NEAR(after.stddev[c], 1.0, 1e-9);
  }
}

TEST(Stats, NormalizeRowMatchesMatrixNormalize) {
  const Matrix m{{1, 2}, {3, 6}};
  const ColumnStats cs = column_stats(m);
  std::vector<double> row = {1, 2};
  normalize_row(row, cs);
  const Matrix n = normalize(m, cs);
  EXPECT_DOUBLE_EQ(row[0], n.at(0, 0));
  EXPECT_DOUBLE_EQ(row[1], n.at(0, 1));
}

TEST(Stats, NormalizationReplayOnTestData) {
  // Stats fitted on train must be applied verbatim to test data.
  const Matrix train{{0, 0}, {2, 4}};
  const ColumnStats cs = column_stats(train);
  const Matrix test{{4, 8}};
  const Matrix n = normalize(test, cs);
  EXPECT_DOUBLE_EQ(n.at(0, 0), 3.0);  // (4-1)/1
  EXPECT_DOUBLE_EQ(n.at(0, 1), 3.0);  // (8-2)/2
}

TEST(Stats, CovarianceOfIndependentColumnsNearDiagonal) {
  Rng rng(7);
  Matrix m(4000, 2);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    m(r, 0) = rng.normal(0.0, 1.0);
    m(r, 1) = rng.normal(0.0, 3.0);
  }
  const Matrix cov = covariance(m);
  EXPECT_NEAR(cov.at(0, 0), 1.0, 0.15);
  EXPECT_NEAR(cov.at(1, 1), 9.0, 1.0);
  EXPECT_NEAR(cov.at(0, 1), 0.0, 0.2);
}

TEST(Stats, CovarianceIsSymmetric) {
  Rng rng(9);
  Matrix m(50, 4);
  for (auto& x : m.data()) x = rng.uniform(-1.0, 1.0);
  const Matrix cov = covariance(m);
  EXPECT_LT(cov.max_abs_diff(cov.transposed()), 1e-12);
}

TEST(Stats, ScatterEqualsCovarianceTimesNMinusOne) {
  Rng rng(13);
  Matrix m(30, 3);
  for (auto& x : m.data()) x = rng.uniform(0.0, 10.0);
  const Matrix s = scatter(m);
  Matrix c = covariance(m);
  c *= static_cast<double>(m.rows() - 1);
  EXPECT_LT(s.max_abs_diff(c), 1e-8);
}

TEST(Stats, CorrelationOfPerfectlyLinearSeries) {
  const std::vector<double> a = {1, 2, 3, 4};
  const std::vector<double> b = {2, 4, 6, 8};
  const std::vector<double> neg = {8, 6, 4, 2};
  EXPECT_NEAR(correlation(a, b), 1.0, 1e-12);
  EXPECT_NEAR(correlation(a, neg), -1.0, 1e-12);
}

TEST(Stats, CorrelationOfConstantIsZero) {
  const std::vector<double> a = {1, 2, 3};
  const std::vector<double> c = {5, 5, 5};
  EXPECT_DOUBLE_EQ(correlation(a, c), 0.0);
}

TEST(RunningStats, MatchesBatchStatistics) {
  const std::vector<double> v = {2, 4, 4, 4, 5, 5, 7, 9};
  RunningStats rs;
  for (double x : v) rs.add(x);
  EXPECT_EQ(rs.count(), v.size());
  EXPECT_DOUBLE_EQ(rs.mean(), mean(v));
  EXPECT_NEAR(rs.variance(), variance(v), 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

TEST(RunningStats, EmptyIsZero) {
  const RunningStats rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
}

TEST(RunningStats, MergeEqualsSingleStream) {
  Rng rng(21);
  RunningStats all, a, b;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(3.0, 2.0);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats a;
  a.add(1.0);
  a.add(3.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  RunningStats b;
  b.merge(a);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

}  // namespace
}  // namespace appclass::linalg
