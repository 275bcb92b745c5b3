// Classifier evaluation tooling: confusion matrices, per-class
// precision/recall, and k-fold cross-validation over labelled snapshot
// pools. Used by the ablation benches and by the automated feature
// selection (which needs a quality signal to compare metric subsets).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.hpp"

namespace appclass::core {

/// Row = true class, column = predicted class.
class ConfusionMatrix {
 public:
  void add(ApplicationClass truth, ApplicationClass predicted) {
    ++counts_[index_of(truth)][index_of(predicted)];
    ++total_;
  }

  std::size_t count(ApplicationClass truth,
                    ApplicationClass predicted) const {
    return counts_[index_of(truth)][index_of(predicted)];
  }
  std::size_t total() const noexcept { return total_; }

  /// Fraction of samples on the diagonal.
  double accuracy() const;

  /// Precision for one class: TP / (TP + FP). Returns 1 when the class was
  /// never predicted (vacuous).
  double precision(ApplicationClass cls) const;

  /// Recall for one class: TP / (TP + FN). Returns 1 when the class never
  /// occurred.
  double recall(ApplicationClass cls) const;

  /// Harmonic mean of precision and recall.
  double f1(ApplicationClass cls) const;

  /// Unweighted mean F1 over classes that occur.
  double macro_f1() const;

  /// Merges another matrix (for cross-validation fold aggregation).
  void merge(const ConfusionMatrix& other);

 private:
  std::array<std::array<std::size_t, kClassCount>, kClassCount> counts_{};
  std::size_t total_ = 0;
};

/// Labelled snapshot set (flattened pools).
struct LabeledSnapshots {
  std::vector<metrics::Snapshot> snapshots;
  std::vector<ApplicationClass> labels;

  std::size_t size() const noexcept { return snapshots.size(); }
};

/// Flattens labelled pools into one snapshot list.
LabeledSnapshots flatten(const std::vector<LabeledPool>& pools);

/// Evaluates a trained pipeline on labelled snapshots.
ConfusionMatrix evaluate(const ClassificationPipeline& pipeline,
                         const LabeledSnapshots& data);

/// Stratified k-fold cross-validation: splits each class's snapshots into
/// `folds` parts deterministically (by a seeded shuffle), trains a fresh
/// pipeline on k-1 folds, evaluates on the held-out fold, and merges the
/// per-fold confusion matrices.
ConfusionMatrix cross_validate(const std::vector<LabeledPool>& pools,
                               PipelineOptions options, std::size_t folds = 5,
                               std::uint64_t seed = 1);

}  // namespace appclass::core
