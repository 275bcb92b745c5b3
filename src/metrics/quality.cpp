#include "metrics/quality.hpp"

#include <cmath>

#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace appclass::metrics {
namespace {

/// An announcement older than (node's newest accepted time - this) is
/// rejected as a stale replay; mild reordering inside it is accepted.
constexpr SimTime kStalenessBudgetS = 30;
/// A repaired metric reuses the node's last good value only while it is
/// at most this old; beyond it the fallback value is used instead.
constexpr SimTime kImputationTtlS = 60;
/// When more than this fraction of a snapshot's metrics need repair the
/// whole snapshot is quarantined — too little signal is left to trust
/// the repair.
constexpr double kMaxRepairFraction = 0.5;

struct SanitizerMetrics {
  obs::Counter& accepted = obs::MetricsRegistry::global().counter(
      "appclass_sanitizer_accepted_total");
  obs::Counter& repaired = obs::MetricsRegistry::global().counter(
      "appclass_sanitizer_repaired_total");
  obs::Counter& imputed_locf = obs::MetricsRegistry::global().counter(
      "appclass_sanitizer_imputed_total", {{"source", "locf"}});
  obs::Counter& imputed_fallback = obs::MetricsRegistry::global().counter(
      "appclass_sanitizer_imputed_total", {{"source", "fallback"}});
  obs::Counter& rejected_stale = obs::MetricsRegistry::global().counter(
      "appclass_sanitizer_rejected_total", {{"reason", "stale"}});
  obs::Counter& rejected_duplicate = obs::MetricsRegistry::global().counter(
      "appclass_sanitizer_rejected_total", {{"reason", "duplicate"}});
  obs::Counter& quarantined = obs::MetricsRegistry::global().counter(
      "appclass_sanitizer_rejected_total", {{"reason", "quarantine"}});
};

SanitizerMetrics& sanitizer_metrics() {
  static SanitizerMetrics metrics;
  return metrics;
}

}  // namespace

void SnapshotSanitizer::set_fallback(
    const std::array<double, kMetricCount>& values) {
  fallback_ = values;
  has_fallback_ = true;
}

bool SnapshotSanitizer::valid_value(std::size_t metric_index,
                                    double v) const noexcept {
  return std::isfinite(v) &&
         plausible_range(static_cast<MetricId>(metric_index)).contains(v);
}

double SnapshotSanitizer::impute(const NodeState& node,
                                 std::size_t metric_index,
                                 SimTime now) const noexcept {
  SanitizerMetrics& sm = sanitizer_metrics();
  const SimTime seen = node.last_good_time[metric_index];
  const bool have_locf = seen >= 0;
  const bool fresh =
      have_locf && now - seen <= kImputationTtlS && now >= seen;
  if (fresh || (have_locf && !has_fallback_)) {
    sm.imputed_locf.inc();
    return node.last_good[metric_index];
  }
  sm.imputed_fallback.inc();
  return has_fallback_ ? fallback_[metric_index] : 0.0;
}

SanitizeResult SnapshotSanitizer::sanitize(const Snapshot& raw) {
  SanitizerMetrics& sm = sanitizer_metrics();
  NodeState& node = nodes_[raw.node_ip];
  SanitizeResult result;
  result.snapshot = raw;

  // Freshness: reject replays from beyond the staleness budget. Mild
  // reordering (inside the budget) is tolerated.
  if (node.seen_any &&
      raw.time < node.newest - kStalenessBudgetS) {
    result.verdict = SanitizeVerdict::kRejectedStale;
    ++stats_.rejected_stale;
    sm.rejected_stale.inc();
    APPCLASS_LOG_DEBUG("sanitizer.stale", {"node", raw.node_ip},
                       {"time", raw.time}, {"newest", node.newest});
    return result;
  }

  // Dedup by (node, time): duplicated UDP delivery or a replayed
  // announcement inside the budget.
  if (node.seen_times.count(raw.time) != 0) {
    result.verdict = SanitizeVerdict::kRejectedDuplicate;
    ++stats_.rejected_duplicate;
    sm.rejected_duplicate.inc();
    return result;
  }

  // Per-metric validation and repair.
  std::size_t invalid = 0;
  std::array<bool, kMetricCount> was_valid{};
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    const double v = raw.values[i];
    if (valid_value(i, v)) {
      was_valid[i] = true;
      continue;
    }
    ++invalid;
    result.snapshot.values[i] = impute(node, i, raw.time);
  }

  if (invalid > 0 &&
      static_cast<double>(invalid) >
          kMaxRepairFraction * static_cast<double>(kMetricCount)) {
    result.verdict = SanitizeVerdict::kQuarantined;
    result.imputed_metrics = 0;
    ++stats_.quarantined;
    sm.quarantined.inc();
    APPCLASS_LOG_DEBUG("sanitizer.quarantine", {"node", raw.node_ip},
                       {"time", raw.time}, {"invalid_metrics", invalid});
    return result;
  }

  // Accept: update dedup / freshness / last-good state.
  node.seen_any = true;
  if (raw.time > node.newest) {
    node.newest = raw.time;
    // Purge dedup entries that fell out of the staleness window: anything
    // older is rejected as stale before the dedup check runs.
    const SimTime horizon = node.newest - kStalenessBudgetS;
    node.seen_times.erase(node.seen_times.begin(),
                          node.seen_times.lower_bound(horizon));
  }
  node.seen_times.insert(raw.time);
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    if (!was_valid[i]) continue;
    if (node.last_good_time[i] < 0 || raw.time >= node.last_good_time[i]) {
      node.last_good[i] = raw.values[i];
      node.last_good_time[i] = raw.time;
    }
  }

  result.imputed_metrics = invalid;
  stats_.imputed_values += invalid;
  if (invalid == 0) {
    result.verdict = SanitizeVerdict::kAccepted;
    ++stats_.accepted;
    sm.accepted.inc();
  } else {
    result.verdict = SanitizeVerdict::kRepaired;
    ++stats_.repaired;
    sm.repaired.inc();
  }
  return result;
}

}  // namespace appclass::metrics
