#include "core/pca.hpp"

#include <gtest/gtest.h>

#include "linalg/random.hpp"
#include "linalg/stats.hpp"

namespace appclass::core {
namespace {

/// Data with variance concentrated along a known direction.
linalg::Matrix anisotropic_data(std::size_t n, std::uint64_t seed) {
  linalg::Rng rng(seed);
  linalg::Matrix m(n, 3);
  for (std::size_t r = 0; r < n; ++r) {
    const double main_axis = rng.normal(0.0, 10.0);
    m(r, 0) = main_axis + rng.normal(0.0, 0.1);
    m(r, 1) = main_axis + rng.normal(0.0, 0.1);
    m(r, 2) = rng.normal(0.0, 0.5);
  }
  return m;
}

TEST(Pca, ForcedComponentCount) {
  Pca pca({.min_fraction_variance = 0.99, .forced_components = 2});
  pca.fit(anisotropic_data(200, 1));
  EXPECT_EQ(pca.components(), 2u);
  EXPECT_EQ(pca.input_dimension(), 3u);
}

TEST(Pca, VarianceThresholdSelectsFewComponentsForAnisotropicData) {
  Pca pca({.min_fraction_variance = 0.9, .forced_components = 0});
  pca.fit(anisotropic_data(500, 2));
  // One direction carries nearly all variance.
  EXPECT_EQ(pca.components(), 1u);
  EXPECT_GE(pca.captured_variance(), 0.9);
}

TEST(Pca, ThresholdOneKeepsEverything) {
  Pca pca({.min_fraction_variance = 1.0, .forced_components = 0});
  pca.fit(anisotropic_data(100, 3));
  EXPECT_EQ(pca.components(), 3u);
  EXPECT_NEAR(pca.captured_variance(), 1.0, 1e-12);
}

TEST(Pca, FirstComponentAlignsWithDominantDirection) {
  Pca pca({.forced_components = 1});
  pca.fit(anisotropic_data(500, 4));
  const auto& w = pca.projection();
  // Dominant direction is (1,1,0)/sqrt(2).
  EXPECT_NEAR(std::abs(w(0, 0)), std::abs(w(1, 0)), 0.05);
  EXPECT_LT(std::abs(w(2, 0)), 0.1);
}

TEST(Pca, ExplainedVarianceRatiosDescendAndSumBelowOne) {
  Pca pca({.forced_components = 2});
  pca.fit(anisotropic_data(300, 5));
  const auto r = pca.explained_variance_ratio();
  ASSERT_EQ(r.size(), 2u);
  EXPECT_GE(r[0], r[1]);
  EXPECT_LE(r[0] + r[1], 1.0 + 1e-12);
}

TEST(Pca, TransformedDataIsCentered) {
  Pca pca({.forced_components = 2});
  const auto data = anisotropic_data(400, 6);
  pca.fit(data);
  const auto proj = pca.transform(data);
  const auto stats = linalg::column_stats(proj);
  for (double m : stats.mean) EXPECT_NEAR(m, 0.0, 1e-9);
}

TEST(Pca, ComponentsAreDecorrelated) {
  Pca pca({.forced_components = 3});
  const auto data = anisotropic_data(400, 7);
  pca.fit(data);
  const auto columns = pca.transform(data).transposed();
  EXPECT_NEAR(linalg::correlation(columns.row(0), columns.row(1)), 0.0, 1e-6);
}

TEST(Pca, SingleRowTransformMatchesMatrixTransform) {
  Pca pca({.forced_components = 2});
  const auto data = anisotropic_data(50, 8);
  pca.fit(data);
  const auto all = pca.transform(data);
  const auto one = pca.transform(data.row(17));
  EXPECT_DOUBLE_EQ(one[0], all.at(17, 0));
  EXPECT_DOUBLE_EQ(one[1], all.at(17, 1));
}

TEST(Pca, FullRankInverseTransformIsExact) {
  Pca pca({.forced_components = 3});
  const auto data = anisotropic_data(60, 9);
  pca.fit(data);
  const auto restored = pca.inverse_transform(pca.transform(data));
  EXPECT_LT(restored.max_abs_diff(data), 1e-9);
}

TEST(Pca, ReconstructionErrorDecreasesWithMoreComponents) {
  const auto data = anisotropic_data(200, 10);
  double previous = 1e18;
  for (std::size_t q = 1; q <= 3; ++q) {
    Pca pca({.forced_components = q});
    pca.fit(data);
    const auto restored = pca.inverse_transform(pca.transform(data));
    double err = 0.0;
    for (std::size_t r = 0; r < data.rows(); ++r)
      err += linalg::squared_distance(data.row(r), restored.row(r));
    EXPECT_LE(err, previous + 1e-9);
    previous = err;
  }
  EXPECT_NEAR(previous, 0.0, 1e-9);
}

TEST(Pca, ProjectionColumnsAreOrthonormal) {
  Pca pca({.forced_components = 3});
  pca.fit(anisotropic_data(120, 11));
  const auto& w = pca.projection();
  const auto wtw = w.transposed() * w;
  EXPECT_LT(wtw.max_abs_diff(linalg::Matrix::identity(3)), 1e-9);
}

TEST(Pca, MeanMatchesColumnMeans) {
  Pca pca({.forced_components = 1});
  const auto data = anisotropic_data(80, 12);
  pca.fit(data);
  const auto stats = linalg::column_stats(data);
  for (std::size_t c = 0; c < 3; ++c)
    EXPECT_NEAR(pca.mean()[c], stats.mean[c], 1e-12);
}

TEST(Pca, ForcedCountClampedToDimension) {
  Pca pca({.forced_components = 10});
  pca.fit(anisotropic_data(40, 13));
  EXPECT_EQ(pca.components(), 3u);
}

}  // namespace
}  // namespace appclass::core
