#include "core/classifiers.hpp"

#include <gtest/gtest.h>

#include "linalg/random.hpp"

namespace appclass::core {
namespace {

struct Dataset {
  linalg::Matrix points;
  std::vector<ApplicationClass> labels;
};

/// Three Gaussian blobs in 2-D.
Dataset three_blobs(std::size_t per_class, double sigma, std::uint64_t seed) {
  linalg::Rng rng(seed);
  Dataset d;
  d.points = linalg::Matrix(3 * per_class, 2);
  const double centers[3][2] = {{0, 0}, {10, 0}, {0, 10}};
  const ApplicationClass classes[3] = {ApplicationClass::kCpu,
                                       ApplicationClass::kIo,
                                       ApplicationClass::kNetwork};
  for (std::size_t c = 0; c < 3; ++c)
    for (std::size_t i = 0; i < per_class; ++i) {
      const std::size_t r = c * per_class + i;
      d.points(r, 0) = rng.normal(centers[c][0], sigma);
      d.points(r, 1) = rng.normal(centers[c][1], sigma);
      d.labels.push_back(classes[c]);
    }
  return d;
}

TEST(NearestCentroid, CentroidsAreClassMeans) {
  linalg::Matrix points{{0, 0}, {2, 2}, {10, 10}};
  std::vector<ApplicationClass> labels = {ApplicationClass::kCpu,
                                          ApplicationClass::kCpu,
                                          ApplicationClass::kIo};
  NearestCentroidClassifier nc;
  nc.train(points, labels);
  // Centroids (1, 1) and (10, 10) put the decision boundary at x + y = 11;
  // the nearest training point alone would put it at x + y = 12.
  EXPECT_EQ(nc.classify(std::vector<double>{5.4, 5.4}),
            ApplicationClass::kCpu);
  EXPECT_EQ(nc.classify(std::vector<double>{5.6, 5.6}),
            ApplicationClass::kIo);
}

TEST(NearestCentroid, ClassifiesBlobs) {
  const Dataset d = three_blobs(30, 0.5, 1);
  NearestCentroidClassifier nc;
  nc.train(d.points, d.labels);
  EXPECT_EQ(nc.classify(std::vector<double>{0.2, -0.1}),
            ApplicationClass::kCpu);
  EXPECT_EQ(nc.classify(std::vector<double>{9.0, 1.0}),
            ApplicationClass::kIo);
  EXPECT_EQ(nc.classify(std::vector<double>{1.0, 9.5}),
            ApplicationClass::kNetwork);
}

TEST(WeightedKnn, ClassifiesBlobs) {
  const Dataset d = three_blobs(30, 0.5, 2);
  WeightedKnnClassifier wk(3);
  wk.train(d.points, d.labels);
  EXPECT_EQ(wk.classify(std::vector<double>{0.0, 0.0}),
            ApplicationClass::kCpu);
  EXPECT_EQ(wk.classify(std::vector<double>{10.0, 0.0}),
            ApplicationClass::kIo);
}

TEST(WeightedKnn, InverseDistanceBreaksMajority) {
  // Two far io points vs one coincident cpu point within k=3: plain
  // majority says io; inverse-distance weighting says cpu.
  linalg::Matrix points{{0.0, 0.0}, {5.0, 0.0}, {5.0, 0.1}};
  std::vector<ApplicationClass> labels = {ApplicationClass::kCpu,
                                          ApplicationClass::kIo,
                                          ApplicationClass::kIo};
  WeightedKnnClassifier wk(3);
  wk.train(points, labels);
  EXPECT_EQ(wk.classify(std::vector<double>{0.01, 0.0}),
            ApplicationClass::kCpu);
  MajorityKnnAdapter mk(KnnOptions{.k = 3});
  mk.train(points, labels);
  EXPECT_EQ(mk.classify(std::vector<double>{0.01, 0.0}),
            ApplicationClass::kIo);
}

TEST(Classifiers, AllAgreeOnWellSeparatedData) {
  const Dataset train = three_blobs(40, 0.6, 3);
  const Dataset test = three_blobs(20, 0.6, 4);

  std::vector<std::unique_ptr<SnapshotClassifier>> classifiers;
  classifiers.push_back(std::make_unique<NearestCentroidClassifier>());
  classifiers.push_back(std::make_unique<WeightedKnnClassifier>(3));
  classifiers.push_back(std::make_unique<MajorityKnnAdapter>());

  for (auto& clf : classifiers) {
    clf->train(train.points, train.labels);
    std::size_t correct = 0;
    const auto predictions = clf->classify_all(test.points);
    for (std::size_t i = 0; i < predictions.size(); ++i)
      correct += predictions[i] == test.labels[i];
    EXPECT_GT(static_cast<double>(correct) /
                  static_cast<double>(test.labels.size()),
              0.97)
        << clf->name();
  }
}

TEST(Classifiers, BatchMatchesPointwise) {
  const Dataset d = three_blobs(15, 0.5, 5);
  WeightedKnnClassifier wk(3);
  wk.train(d.points, d.labels);
  const auto batch = wk.classify_all(d.points);
  for (std::size_t i = 0; i < d.labels.size(); ++i)
    EXPECT_EQ(batch[i], wk.classify(d.points.row(i)));
}

TEST(Classifiers, NamesAreDistinct) {
  NearestCentroidClassifier a;
  WeightedKnnClassifier b;
  MajorityKnnAdapter c;
  EXPECT_NE(a.name(), b.name());
  EXPECT_NE(b.name(), c.name());
}

}  // namespace
}  // namespace appclass::core
