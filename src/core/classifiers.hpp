// Alternative snapshot classifiers.
//
// The paper picks plain k-NN on the strength of Kapadia's comparison
// against locally-weighted methods. To make that design choice testable,
// this module provides a common interface plus two alternatives:
//
//   * NearestCentroidClassifier — one prototype per class (the cheapest
//     reasonable baseline; O(#classes) per query);
//   * WeightedKnnClassifier — k-NN with inverse-distance vote weights
//     (the locally-weighted flavour of the same idea).
//
// All operate in the same projected feature space the pipeline produces;
// the `ablation_classifiers` bench compares them on held-out runs.
#pragma once

#include <array>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "core/knn.hpp"

namespace appclass::core {

/// Interface over point classifiers in the (projected) feature space.
class SnapshotClassifier {
 public:
  virtual ~SnapshotClassifier() = default;
  virtual std::string_view name() const = 0;
  virtual void train(linalg::Matrix points,
                     std::vector<ApplicationClass> labels) = 0;
  virtual ApplicationClass classify(std::span<const double> point) const = 0;

  /// Classifies every row.
  std::vector<ApplicationClass> classify_all(const linalg::Matrix& points)
      const;
};

/// Assigns the class of the nearest per-class mean.
class NearestCentroidClassifier final : public SnapshotClassifier {
 public:
  std::string_view name() const override { return "nearest-centroid"; }
  void train(linalg::Matrix points,
             std::vector<ApplicationClass> labels) override;
  ApplicationClass classify(std::span<const double> point) const override;

 private:
  std::array<std::vector<double>, kClassCount> centroids_;
  std::array<std::size_t, kClassCount> counts_{};
  std::size_t dims_ = 0;
};

/// k-NN with votes weighted by 1/(distance + epsilon).
class WeightedKnnClassifier final : public SnapshotClassifier {
 public:
  explicit WeightedKnnClassifier(std::size_t k = 3, double epsilon = 1e-9);
  std::string_view name() const override { return "weighted-knn"; }
  void train(linalg::Matrix points,
             std::vector<ApplicationClass> labels) override;
  ApplicationClass classify(std::span<const double> point) const override;

 private:
  std::size_t k_;
  double epsilon_;
  linalg::Matrix points_;
  std::vector<ApplicationClass> labels_;
};

/// Adapter presenting the paper's majority-vote KnnClassifier through the
/// common interface.
class MajorityKnnAdapter final : public SnapshotClassifier {
 public:
  explicit MajorityKnnAdapter(KnnOptions options = {}) : knn_(options) {}
  std::string_view name() const override { return "majority-knn"; }
  void train(linalg::Matrix points,
             std::vector<ApplicationClass> labels) override {
    knn_.train(std::move(points), std::move(labels));
  }
  ApplicationClass classify(std::span<const double> point) const override {
    return knn_.query(point).labels.front();
  }

 private:
  KnnClassifier knn_;
};

}  // namespace appclass::core
