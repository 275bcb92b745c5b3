// Multi-window error-budget SLO tracking for the serving fleet.
//
// Two service-level indicators matter for a classification fleet:
//
//   * freshness — an announced snapshot becomes durable (worker WAL
//     fsync acknowledged) within a threshold; a slow or resent frame is
//     a "bad" event. This is the paper's monitoring loop measured end
//     to end: announce -> collect -> classify must keep up with the
//     sampling interval or the served composition goes stale.
//   * availability — a worker answers its periodic /metrics scrape.
//
// Each indicator keeps per-second good/bad buckets over the long window
// and reports the SRE-style *burn rate* — error_rate / (1 - objective),
// i.e. how many times faster than sustainable the error budget is being
// spent — over a short window and a long window 12 times its length.
// The verdict alerts only when BOTH windows burn faster than the budget
// allows (burn rate above 1: the classic multi-window rule — the short
// window proves it is happening now, the long window proves it is not a
// blip), and that verdict folds into the coordinator's /healthz 200/503.
//
// Time is injected (`now_s`) rather than read internally so tests drive
// the windows deterministically; serving feeds a monotonic clock.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace appclass::obs {

struct SloOptions {
  /// Target good fraction, shared by both indicators.
  double objective = 0.99;
  /// Announce->durable latency above this is a bad freshness event.
  double freshness_threshold_s = 5.0;
  /// Short burn-rate window, seconds; the long window is 12x (defaults:
  /// 5 minutes and 1 hour).
  int short_window_s = 300;
};

class SloTracker {
 public:
  explicit SloTracker(SloOptions options = {});

  /// One announce->durable sample; latency above the freshness
  /// threshold counts against the budget.
  void record_freshness(double latency_s, std::int64_t now_s);
  /// One availability probe outcome (worker scrape success/failure).
  void record_availability(bool ok, std::int64_t now_s);

  struct WindowReport {
    int window_s = 0;
    std::uint64_t good = 0;
    std::uint64_t bad = 0;
    double error_rate = 0.0;  ///< bad / (good + bad); 0 on empty window
    double burn_rate = 0.0;   ///< error_rate / (1 - objective)
  };
  struct SliReport {
    double objective = 0.0;
    WindowReport short_window;
    WindowReport long_window;
    bool burning = false;  ///< burn rate above 1 in both windows
  };
  struct Report {
    SliReport freshness;
    SliReport availability;
    bool healthy = true;  ///< no indicator burning
  };

  Report report(std::int64_t now_s) const;
  bool healthy(std::int64_t now_s) const;
  /// JSON verdict served at /slo and used as the /healthz body.
  std::string to_json(std::int64_t now_s) const;

  const SloOptions& options() const noexcept { return options_; }

  /// Monotonic seconds — the `now_s` the serving layer feeds.
  static std::int64_t now_s() noexcept;

 private:
  /// Ring of per-second (good, bad) buckets covering the long window.
  struct Sli {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> buckets;
    std::int64_t head_s = -1;  ///< second the newest bucket covers

    explicit Sli(std::size_t window_s) : buckets(window_s, {0, 0}) {}
    void advance(std::int64_t now_s);
    void record(bool good, std::int64_t now_s);
    WindowReport window(int window_s, std::int64_t now_s,
                        double objective) const;
  };

  const SloOptions options_;
  mutable std::mutex mutex_;
  Sli freshness_;
  Sli availability_;
};

}  // namespace appclass::obs
