// Snapshot sanitization: the telemetry quality gate.
//
// Ganglia announcements arrive over lossy UDP multicast: values get
// corrupted in flight, daemons replay stale state after restarts, packets
// are duplicated, and individual sensors drop out. `SnapshotSanitizer`
// sits between the monitoring bus and any learning consumer (profiler,
// online classifier) and guarantees that everything downstream is finite,
// fresh, unique per (node, time), and within each metric's plausible
// range — repairing what it can (last-observation-carried-forward with a
// TTL, falling back to training means) and rejecting what it cannot.
// Its budgets are fixed: a 30 s staleness budget, a 60 s imputation TTL,
// and quarantine once more than half of a snapshot's metrics need repair.
// Every decision is counted through the appclass::obs registry so a
// degraded monitoring plane is visible in `--stats` output.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "metrics/snapshot.hpp"

namespace appclass::metrics {

/// What the sanitizer decided about one announcement.
enum class SanitizeVerdict {
  kAccepted,           ///< passed every check untouched
  kRepaired,           ///< accepted after imputing some metrics
  kRejectedStale,      ///< older than the staleness budget (replay)
  kRejectedDuplicate,  ///< (node, time) already accepted
  kQuarantined,        ///< too many metrics needed repair
};

/// True for the verdicts that let the snapshot through.
constexpr bool accepted(SanitizeVerdict v) noexcept {
  return v == SanitizeVerdict::kAccepted || v == SanitizeVerdict::kRepaired;
}

struct SanitizeResult {
  SanitizeVerdict verdict = SanitizeVerdict::kAccepted;
  /// The (possibly repaired) snapshot; meaningful only when accepted().
  Snapshot snapshot;
  /// Metrics imputed in this snapshot (0 when kAccepted).
  std::size_t imputed_metrics = 0;

  bool ok() const noexcept { return metrics::accepted(verdict); }
};

class SnapshotSanitizer {
 public:
  /// Per-metric fallback values (typically training means) used when a
  /// node has no fresh-enough last good value to carry forward. Without a
  /// fallback, expired imputations reuse the stale last good value anyway
  /// (better than fabricating zeros).
  void set_fallback(const std::array<double, kMetricCount>& values);

  /// Validates one announcement and returns the decision plus the
  /// repaired snapshot. Accepted snapshots update the node's dedup /
  /// freshness / last-good state.
  SanitizeResult sanitize(const Snapshot& raw);

  /// Local decision tallies (the same numbers are exported globally via
  /// the obs registry; these are per-instance for tests and reports).
  struct Stats {
    std::uint64_t accepted = 0;        ///< clean, untouched
    std::uint64_t repaired = 0;        ///< accepted with imputations
    std::uint64_t imputed_values = 0;  ///< individual metrics imputed
    std::uint64_t rejected_stale = 0;
    std::uint64_t rejected_duplicate = 0;
    std::uint64_t quarantined = 0;

    std::uint64_t rejected() const noexcept {
      return rejected_stale + rejected_duplicate + quarantined;
    }
    std::uint64_t processed() const noexcept {
      return accepted + repaired + rejected();
    }
  };
  const Stats& stats() const noexcept { return stats_; }

 private:
  struct NodeState {
    NodeState() { last_good_time.fill(-1); }

    bool seen_any = false;
    SimTime newest = 0;
    /// Accepted announcement times within the staleness window (dedup).
    std::set<SimTime> seen_times;
    std::array<double, kMetricCount> last_good{};
    /// Time each metric was last observed valid; -1 = never.
    std::array<SimTime, kMetricCount> last_good_time{};
  };

  bool valid_value(std::size_t metric_index, double v) const noexcept;
  double impute(const NodeState& node, std::size_t metric_index,
                SimTime now) const noexcept;

  std::array<double, kMetricCount> fallback_{};
  bool has_fallback_ = false;
  std::map<std::string, NodeState> nodes_;
  Stats stats_;
};

}  // namespace appclass::metrics
