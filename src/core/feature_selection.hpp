// Automated feature selection (the paper's section-7 future work).
//
// The paper selects its 8 input metrics manually, "based on expert
// knowledge and the principle of increasing relevance and reducing
// redundancy [Yu & Liu]", and plans to automate the step to enable online
// classification. This module implements that automation:
//
//   * relevance  — a one-way ANOVA F-statistic of each metric against the
//     class labels (between-class variance over within-class variance);
//   * redundancy — absolute Pearson correlation between metrics;
//   * selection  — greedy: walk metrics in decreasing relevance, keep one
//     if its |correlation| with every already-kept metric stays at or
//     below 0.97, until the paper's 8 metrics are kept. Constant metrics
//     (relevance 0) are never kept.
#pragma once

#include <cstddef>
#include <vector>

#include "core/evaluation.hpp"
#include "metrics/schema.hpp"

namespace appclass::core {

struct FeatureScore {
  metrics::MetricId metric;
  double relevance = 0.0;  ///< ANOVA F-statistic vs the class labels
};

/// Relevance of every metric, sorted descending (constant metrics last).
std::vector<FeatureScore> rank_features(const LabeledSnapshots& data);

/// Absolute Pearson correlation between two metrics over the data.
double feature_redundancy(const LabeledSnapshots& data, metrics::MetricId a,
                          metrics::MetricId b);

/// Greedy relevance/redundancy selection over all 33 monitored metrics.
std::vector<metrics::MetricId> select_features(const LabeledSnapshots& data);

/// Convenience: selects features from labelled pools.
std::vector<metrics::MetricId> select_features(
    const std::vector<LabeledPool>& pools);

}  // namespace appclass::core
