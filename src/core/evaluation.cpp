#include "core/evaluation.hpp"

#include <numeric>

#include "common/assert.hpp"
#include "linalg/random.hpp"

namespace appclass::core {

double ConfusionMatrix::accuracy() const {
  if (total_ == 0) return 0.0;
  std::size_t diag = 0;
  for (std::size_t c = 0; c < kClassCount; ++c) diag += counts_[c][c];
  return static_cast<double>(diag) / static_cast<double>(total_);
}

double ConfusionMatrix::precision(ApplicationClass cls) const {
  const std::size_t c = index_of(cls);
  std::size_t predicted = 0;
  for (std::size_t t = 0; t < kClassCount; ++t) predicted += counts_[t][c];
  if (predicted == 0) return 1.0;
  return static_cast<double>(counts_[c][c]) / static_cast<double>(predicted);
}

double ConfusionMatrix::recall(ApplicationClass cls) const {
  const std::size_t c = index_of(cls);
  const std::size_t actual =
      std::accumulate(counts_[c].begin(), counts_[c].end(), std::size_t{0});
  if (actual == 0) return 1.0;
  return static_cast<double>(counts_[c][c]) / static_cast<double>(actual);
}

double ConfusionMatrix::f1(ApplicationClass cls) const {
  const double p = precision(cls);
  const double r = recall(cls);
  if (p + r == 0.0) return 0.0;
  return 2.0 * p * r / (p + r);
}

double ConfusionMatrix::macro_f1() const {
  double sum = 0.0;
  int classes = 0;
  for (std::size_t c = 0; c < kClassCount; ++c) {
    const auto cls = class_from_index(c);
    const std::size_t actual =
        std::accumulate(counts_[c].begin(), counts_[c].end(), std::size_t{0});
    if (actual == 0) continue;
    sum += f1(cls);
    ++classes;
  }
  return classes == 0 ? 0.0 : sum / classes;
}

void ConfusionMatrix::merge(const ConfusionMatrix& other) {
  for (std::size_t t = 0; t < kClassCount; ++t)
    for (std::size_t p = 0; p < kClassCount; ++p)
      counts_[t][p] += other.counts_[t][p];
  total_ += other.total_;
}

LabeledSnapshots flatten(const std::vector<LabeledPool>& pools) {
  LabeledSnapshots out;
  for (const auto& lp : pools)
    for (const auto& s : lp.pool.snapshots()) {
      out.snapshots.push_back(s);
      out.labels.push_back(lp.label);
    }
  return out;
}

ConfusionMatrix evaluate(const ClassificationPipeline& pipeline,
                         const LabeledSnapshots& data) {
  APPCLASS_EXPECTS(pipeline.trained());
  ConfusionMatrix cm;
  for (std::size_t i = 0; i < data.size(); ++i)
    cm.add(data.labels[i], pipeline.classify(data.snapshots[i]));
  return cm;
}

ConfusionMatrix cross_validate(const std::vector<LabeledPool>& pools,
                               PipelineOptions options, std::size_t folds,
                               std::uint64_t seed) {
  APPCLASS_EXPECTS(folds >= 2);
  linalg::Rng rng(seed);

  // Assign each snapshot of each pool a fold, stratified per class.
  struct Assigned {
    const LabeledPool* pool;
    std::vector<std::size_t> fold_of;  // per snapshot
  };
  std::vector<Assigned> assigned;
  for (const auto& lp : pools) {
    Assigned a{&lp, std::vector<std::size_t>(lp.pool.size())};
    for (std::size_t i = 0; i < a.fold_of.size(); ++i)
      a.fold_of[i] = i % folds;
    rng.shuffle(std::span<std::size_t>(a.fold_of));
    assigned.push_back(std::move(a));
  }

  ConfusionMatrix total;
  for (std::size_t fold = 0; fold < folds; ++fold) {
    std::vector<LabeledPool> train;
    LabeledSnapshots test;
    for (const auto& a : assigned) {
      metrics::DataPool train_pool(a.pool->pool.node_ip());
      for (std::size_t i = 0; i < a.pool->pool.size(); ++i) {
        if (a.fold_of[i] == fold) {
          test.snapshots.push_back(a.pool->pool[i]);
          test.labels.push_back(a.pool->label);
        } else {
          train_pool.add(a.pool->pool[i]);
        }
      }
      if (!train_pool.empty())
        train.push_back(LabeledPool{std::move(train_pool), a.pool->label});
    }
    ClassificationPipeline pipeline(options);
    pipeline.train(train);
    total.merge(evaluate(pipeline, test));
  }
  return total;
}

}  // namespace appclass::core
