#include "core/feature_selection.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core_test_util.hpp"

namespace appclass::core {
namespace {

using metrics::MetricId;

LabeledSnapshots synthetic_data(std::size_t per_class = 40) {
  return flatten(testing::synthetic_training(per_class));
}

bool contains(const std::vector<MetricId>& v, MetricId id) {
  return std::find(v.begin(), v.end(), id) != v.end();
}

TEST(FeatureSelection, RankingIsSortedDescending) {
  const auto ranked = rank_features(synthetic_data());
  EXPECT_EQ(ranked.size(), metrics::kMetricCount);
  for (std::size_t i = 0; i + 1 < ranked.size(); ++i)
    EXPECT_GE(ranked[i].relevance, ranked[i + 1].relevance);
}

TEST(FeatureSelection, DiscriminativeMetricsRankAboveConstantOnes) {
  const auto ranked = rank_features(synthetic_data());
  double cpu_user_rel = -1.0, mtu_rel = -1.0;
  for (const auto& fs : ranked) {
    if (fs.metric == MetricId::kCpuUser) cpu_user_rel = fs.relevance;
    if (fs.metric == MetricId::kMtu) mtu_rel = fs.relevance;
  }
  EXPECT_GT(cpu_user_rel, 100.0);  // strongly class-separating
  EXPECT_DOUBLE_EQ(mtu_rel, 0.0);  // constant in the synthetic data
}

TEST(FeatureSelection, RedundancyOfPerfectlyCorrelatedPair) {
  // In the synthetic memory class, swap_in == io_bi in distribution;
  // test a literally duplicated pair instead for an exact answer.
  LabeledSnapshots data = synthetic_data();
  for (auto& s : data.snapshots)
    s.set(MetricId::kPktsIn, 2.0 * s.get(MetricId::kBytesIn) + 1.0);
  EXPECT_NEAR(
      feature_redundancy(data, MetricId::kBytesIn, MetricId::kPktsIn), 1.0,
      1e-9);
}

TEST(FeatureSelection, SelectsRequestedCount) {
  // Given enough informative, mutually non-redundant metrics the greedy
  // pass fills the paper's quota of 8 exactly: every constant metric
  // gets a class-dependent level under independent noise, so pairwise
  // |correlation| stays near 0.5, far under the 0.97 redundancy bound.
  LabeledSnapshots data = synthetic_data();
  linalg::Rng rng(13);
  for (const FeatureScore& fs : rank_features(data)) {
    if (fs.relevance > 0.0) continue;
    for (std::size_t i = 0; i < data.size(); ++i)
      data.snapshots[i].set(
          fs.metric, static_cast<double>(index_of(data.labels[i])) +
                         5.0 * rng.uniform());
  }
  EXPECT_EQ(select_features(data).size(), 8u);
}

TEST(FeatureSelection, RedundancyFilterMayReturnFewer) {
  // The synthetic data has 8 informative metrics in 4 tightly correlated
  // pairs; the redundancy filter keeps fewer than the target of 8.
  const auto selected = select_features(synthetic_data());
  EXPECT_GE(selected.size(), 3u);
  EXPECT_LT(selected.size(), 8u);
}

TEST(FeatureSelection, SelectionCoversEveryClassSignal) {
  // The auto-selected set must contain at least one CPU, one IO/paging,
  // and one network metric, or the classifier couldn't separate classes.
  const auto selected = select_features(synthetic_data());
  const bool has_cpu = contains(selected, MetricId::kCpuUser) ||
                       contains(selected, MetricId::kCpuSystem) ||
                       contains(selected, MetricId::kCpuIdle);
  const bool has_io = contains(selected, MetricId::kIoBi) ||
                      contains(selected, MetricId::kIoBo) ||
                      contains(selected, MetricId::kSwapIn) ||
                      contains(selected, MetricId::kSwapOut);
  const bool has_net = contains(selected, MetricId::kBytesIn) ||
                       contains(selected, MetricId::kBytesOut) ||
                       contains(selected, MetricId::kPktsIn) ||
                       contains(selected, MetricId::kPktsOut);
  EXPECT_TRUE(has_cpu);
  EXPECT_TRUE(has_io);
  EXPECT_TRUE(has_net);
}

TEST(FeatureSelection, RedundancyFilterDropsDuplicates) {
  LabeledSnapshots data = synthetic_data();
  // bytes_out is selected on its own (bytes_in, its tightly correlated
  // partner, is not).
  ASSERT_TRUE(contains(select_features(data), MetricId::kBytesOut));
  // Make pkts_in an exact copy of bytes_out (a perfectly redundant metric).
  for (auto& s : data.snapshots)
    s.set(MetricId::kPktsIn, s.get(MetricId::kBytesOut));
  const auto copied = select_features(data);
  EXPECT_FALSE(contains(copied, MetricId::kBytesOut) &&
               contains(copied, MetricId::kPktsIn));
  // A correlated but not redundant copy (|correlation| under the 0.97
  // bound) is kept next to the original.
  linalg::Rng rng(17);
  for (auto& s : data.snapshots)
    s.set(MetricId::kPktsIn,
          s.get(MetricId::kBytesOut) + rng.normal(0.0, 4.0e6));
  EXPECT_LT(feature_redundancy(data, MetricId::kBytesOut, MetricId::kPktsIn),
            0.97);
  const auto correlated = select_features(data);
  EXPECT_TRUE(contains(correlated, MetricId::kBytesOut) &&
              contains(correlated, MetricId::kPktsIn));
}

TEST(FeatureSelection, AutoSelectedFeaturesTrainAnAccurateClassifier) {
  // The full future-work loop: auto-select -> train -> evaluate.
  const auto pools = testing::synthetic_training();
  const auto selected = select_features(pools);
  PipelineOptions options;
  options.selected_metrics = selected;
  const auto cm = cross_validate(pools, options, 4, 11);
  EXPECT_GT(cm.accuracy(), 0.9);
}

TEST(FeatureSelection, DeterministicForSameData) {
  const auto a = select_features(synthetic_data());
  const auto b = select_features(synthetic_data());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace appclass::core
