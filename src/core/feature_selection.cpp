#include "core/feature_selection.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/assert.hpp"
#include "linalg/stats.hpp"

namespace appclass::core {

namespace {

/// Stop once this many metrics are selected (the paper's p = 8).
constexpr std::size_t kTargetCount = 8;
/// Reject a candidate whose |correlation| with any kept metric exceeds
/// this.
constexpr double kMaxRedundancy = 0.97;
/// Drop metrics whose relevance is below this (constant metrics score 0).
constexpr double kMinRelevance = 1e-6;

/// One-way ANOVA F-statistic of metric `m` against the labels.
double anova_f(const LabeledSnapshots& data, std::size_t m) {
  std::array<linalg::RunningStats, kClassCount> per_class;
  linalg::RunningStats overall;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double x = data.snapshots[i].values[m];
    per_class[index_of(data.labels[i])].add(x);
    overall.add(x);
  }
  const double grand_mean = overall.mean();
  double between = 0.0;  // sum over classes of n_c * (mean_c - grand)^2
  double within = 0.0;   // sum over classes of n_c * var_c
  std::size_t groups = 0;
  for (const auto& cls : per_class) {
    if (cls.count() == 0) continue;
    ++groups;
    const auto n = static_cast<double>(cls.count());
    const double d = cls.mean() - grand_mean;
    between += n * d * d;
    within += n * cls.variance();
  }
  if (groups < 2) return 0.0;
  const double df_between = static_cast<double>(groups - 1);
  const double df_within =
      static_cast<double>(data.size()) - static_cast<double>(groups);
  if (df_within <= 0.0) return 0.0;
  const double ms_between = between / df_between;
  const double ms_within = within / df_within;
  if (ms_within <= 0.0)
    return ms_between > 0.0 ? 1e12 : 0.0;  // perfectly separable / constant
  return ms_between / ms_within;
}

}  // namespace

std::vector<FeatureScore> rank_features(const LabeledSnapshots& data) {
  APPCLASS_EXPECTS(data.size() >= 2);
  std::vector<FeatureScore> scores;
  scores.reserve(metrics::kMetricCount);
  for (std::size_t m = 0; m < metrics::kMetricCount; ++m)
    scores.push_back(FeatureScore{static_cast<metrics::MetricId>(m),
                                  anova_f(data, m)});
  std::stable_sort(scores.begin(), scores.end(),
                   [](const FeatureScore& a, const FeatureScore& b) {
                     return a.relevance > b.relevance;
                   });
  return scores;
}

double feature_redundancy(const LabeledSnapshots& data, metrics::MetricId a,
                          metrics::MetricId b) {
  std::vector<double> xs(data.size()), ys(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    xs[i] = data.snapshots[i].get(a);
    ys[i] = data.snapshots[i].get(b);
  }
  return std::abs(linalg::correlation(xs, ys));
}

std::vector<metrics::MetricId> select_features(const LabeledSnapshots& data) {
  const auto ranked = rank_features(data);
  std::vector<metrics::MetricId> selected;
  for (const auto& candidate : ranked) {
    if (selected.size() >= kTargetCount) break;
    if (candidate.relevance < kMinRelevance) break;
    bool redundant = false;
    for (const auto kept : selected) {
      if (feature_redundancy(data, candidate.metric, kept) >
          kMaxRedundancy) {
        redundant = true;
        break;
      }
    }
    if (!redundant) selected.push_back(candidate.metric);
  }
  APPCLASS_ENSURES(!selected.empty());
  return selected;
}

std::vector<metrics::MetricId> select_features(
    const std::vector<LabeledPool>& pools) {
  return select_features(flatten(pools));
}

}  // namespace appclass::core
