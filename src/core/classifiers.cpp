#include "core/classifiers.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace appclass::core {

std::vector<ApplicationClass> SnapshotClassifier::classify_all(
    const linalg::Matrix& points) const {
  std::vector<ApplicationClass> out;
  out.reserve(points.rows());
  for (std::size_t r = 0; r < points.rows(); ++r)
    out.push_back(classify(points.row(r)));
  return out;
}

void NearestCentroidClassifier::train(linalg::Matrix points,
                                      std::vector<ApplicationClass> labels) {
  APPCLASS_EXPECTS(points.rows() == labels.size());
  APPCLASS_EXPECTS(points.rows() >= 1);
  dims_ = points.cols();
  for (auto& c : centroids_) c.assign(dims_, 0.0);
  counts_.fill(0);
  for (std::size_t r = 0; r < points.rows(); ++r) {
    const std::size_t c = index_of(labels[r]);
    ++counts_[c];
    auto row = points.row(r);
    for (std::size_t j = 0; j < dims_; ++j) centroids_[c][j] += row[j];
  }
  for (std::size_t c = 0; c < kClassCount; ++c)
    if (counts_[c] > 0)
      for (double& x : centroids_[c]) x /= static_cast<double>(counts_[c]);
}

ApplicationClass NearestCentroidClassifier::classify(
    std::span<const double> point) const {
  APPCLASS_EXPECTS(dims_ > 0 && point.size() == dims_);
  double best = std::numeric_limits<double>::infinity();
  std::size_t best_class = 0;
  for (std::size_t c = 0; c < kClassCount; ++c) {
    if (counts_[c] == 0) continue;
    const double d = linalg::squared_distance(point, centroids_[c]);
    if (d < best) {
      best = d;
      best_class = c;
    }
  }
  return class_from_index(best_class);
}

WeightedKnnClassifier::WeightedKnnClassifier(std::size_t k, double epsilon)
    : k_(k), epsilon_(epsilon) {
  APPCLASS_EXPECTS(k >= 1);
  APPCLASS_EXPECTS(epsilon > 0.0);
}

void WeightedKnnClassifier::train(linalg::Matrix points,
                                  std::vector<ApplicationClass> labels) {
  APPCLASS_EXPECTS(points.rows() == labels.size());
  APPCLASS_EXPECTS(points.rows() >= k_);
  points_ = std::move(points);
  labels_ = std::move(labels);
}

ApplicationClass WeightedKnnClassifier::classify(
    std::span<const double> point) const {
  APPCLASS_EXPECTS(!labels_.empty());
  APPCLASS_EXPECTS(point.size() == points_.cols());
  const std::size_t n = labels_.size();
  std::vector<std::pair<double, std::size_t>> dist(n);
  for (std::size_t i = 0; i < n; ++i)
    dist[i] = {linalg::euclidean_distance(points_.row(i), point), i};
  const std::size_t k = std::min(k_, n);
  std::partial_sort(dist.begin(),
                    dist.begin() + static_cast<std::ptrdiff_t>(k), dist.end());
  std::array<double, kClassCount> weight{};
  for (std::size_t r = 0; r < k; ++r)
    weight[index_of(labels_[dist[r].second])] +=
        1.0 / (dist[r].first + epsilon_);
  std::size_t best = 0;
  for (std::size_t c = 1; c < kClassCount; ++c)
    if (weight[c] > weight[best]) best = c;
  return class_from_index(best);
}

}  // namespace appclass::core
