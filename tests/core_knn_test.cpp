#include "core/knn.hpp"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "linalg/random.hpp"

namespace appclass::core {
namespace {

/// Two tight clusters on the x axis: class kCpu near x=0, kIo near x=10.
KnnClassifier two_cluster_classifier(std::size_t k = 3) {
  linalg::Matrix points{{0.0, 0.0}, {0.1, 0.0}, {-0.1, 0.1},
                        {10.0, 0.0}, {10.1, 0.0}, {9.9, -0.1}};
  std::vector<ApplicationClass> labels = {
      ApplicationClass::kCpu, ApplicationClass::kCpu, ApplicationClass::kCpu,
      ApplicationClass::kIo,  ApplicationClass::kIo,  ApplicationClass::kIo};
  KnnClassifier knn(KnnOptions{.k = k});
  knn.train(std::move(points), std::move(labels));
  return knn;
}

/// Single-point label through the canonical query() entry point.
ApplicationClass label_of(const KnnClassifier& knn,
                          std::span<const double> point) {
  return knn.query(point).labels[0];
}

TEST(Knn, ClassifiesClearPoints) {
  const auto knn = two_cluster_classifier();
  EXPECT_EQ(label_of(knn, std::vector<double>{0.05, 0.0}),
            ApplicationClass::kCpu);
  EXPECT_EQ(label_of(knn, std::vector<double>{9.5, 0.0}),
            ApplicationClass::kIo);
}

TEST(Knn, DecisionBoundaryNearMidpoint) {
  const auto knn = two_cluster_classifier();
  EXPECT_EQ(label_of(knn, std::vector<double>{4.0, 0.0}),
            ApplicationClass::kCpu);
  EXPECT_EQ(label_of(knn, std::vector<double>{6.0, 0.0}),
            ApplicationClass::kIo);
}

TEST(Knn, KOneUsesSingleNearestNeighbor) {
  // An outlier of the IO class sits inside the CPU cluster; k=1 follows it,
  // k=3 votes it down.
  linalg::Matrix points{{0.0, 0.0}, {0.2, 0.0}, {0.1, 0.1}, {0.05, 0.0},
                        {10.0, 0.0}};
  std::vector<ApplicationClass> labels = {
      ApplicationClass::kCpu, ApplicationClass::kCpu, ApplicationClass::kCpu,
      ApplicationClass::kIo, ApplicationClass::kIo};
  KnnClassifier k1(KnnOptions{.k = 1});
  k1.train(points, labels);
  EXPECT_EQ(label_of(k1, std::vector<double>{0.05, 0.01}),
            ApplicationClass::kIo);
  KnnClassifier k3(KnnOptions{.k = 3});
  k3.train(points, labels);
  EXPECT_EQ(label_of(k3, std::vector<double>{0.05, 0.01}),
            ApplicationClass::kCpu);
}

TEST(Knn, NearestReturnsSortedByDistance) {
  const auto knn = two_cluster_classifier();
  const auto result = knn.query(std::vector<double>{10.05, 0.0},
                                QueryOptions{.neighbors = true});
  ASSERT_EQ(result.neighbors_per_query, 3u);
  // All three from the IO cluster (indices 3..5), nearest first.
  for (std::size_t rank = 0; rank < 3; ++rank)
    EXPECT_GE(result.neighbor(0, rank), 3u);
  const auto d = [&](std::size_t i) {
    return linalg::squared_distance(knn.training_points().row(i),
                                    std::vector<double>{10.05, 0.0});
  };
  EXPECT_LE(d(result.neighbor(0, 0)), d(result.neighbor(0, 1)));
  EXPECT_LE(d(result.neighbor(0, 1)), d(result.neighbor(0, 2)));
}

TEST(Knn, ThreeWayTieBreaksTowardNearest) {
  // k=3 with three distinct classes: one vote each, nearest wins.
  linalg::Matrix points{{1.0, 0.0}, {2.0, 0.0}, {3.0, 0.0}};
  std::vector<ApplicationClass> labels = {ApplicationClass::kIdle,
                                          ApplicationClass::kCpu,
                                          ApplicationClass::kIo};
  KnnClassifier knn(KnnOptions{.k = 3});
  knn.train(points, labels);
  EXPECT_EQ(label_of(knn, std::vector<double>{1.1, 0.0}),
            ApplicationClass::kIdle);
  EXPECT_EQ(label_of(knn, std::vector<double>{2.9, 0.0}),
            ApplicationClass::kIo);
}

TEST(Knn, BatchQueryMatchesPointwise) {
  const auto knn = two_cluster_classifier();
  linalg::Matrix queries{{0.0, 0.0}, {10.0, 0.1}, {5.1, 0.0}};
  const auto batch = knn.query(queries).labels;
  ASSERT_EQ(batch.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(batch[i], label_of(knn, queries.row(i)));
}

TEST(Knn, TrainingAccessors) {
  const auto knn = two_cluster_classifier();
  EXPECT_TRUE(knn.trained());
  EXPECT_EQ(knn.training_size(), 6u);
  EXPECT_EQ(knn.dimension(), 2u);
  EXPECT_EQ(knn.k(), 3u);
  EXPECT_EQ(knn.training_labels()[0], ApplicationClass::kCpu);
}

TEST(Knn, UntrainedReportsNotTrained) {
  const KnnClassifier knn;
  EXPECT_FALSE(knn.trained());
}

TEST(Knn, PerfectRecallOnTrainingPoints) {
  const auto knn = two_cluster_classifier(1);
  for (std::size_t i = 0; i < knn.training_size(); ++i)
    EXPECT_EQ(label_of(knn, knn.training_points().row(i)),
              knn.training_labels()[i]);
}

TEST(Knn, HighDimensionalSeparation) {
  linalg::Rng rng(3);
  linalg::Matrix points(40, 8);
  std::vector<ApplicationClass> labels;
  for (std::size_t i = 0; i < 40; ++i) {
    const bool io = i >= 20;
    for (std::size_t c = 0; c < 8; ++c)
      points(i, c) = rng.normal(io && c >= 4 ? 5.0 : 0.0, 0.4);
    labels.push_back(io ? ApplicationClass::kIo : ApplicationClass::kCpu);
  }
  KnnClassifier knn(KnnOptions{.k = 5});
  knn.train(points, labels);
  std::vector<double> io_query(8, 0.0);
  for (std::size_t c = 4; c < 8; ++c) io_query[c] = 5.0;
  EXPECT_EQ(label_of(knn, io_query), ApplicationClass::kIo);
  EXPECT_EQ(label_of(knn, std::vector<double>(8, 0.0)),
            ApplicationClass::kCpu);
}

}  // namespace
}  // namespace appclass::core
