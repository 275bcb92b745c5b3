// Multi-window error-budget SLO tracking: burn-rate math, per-second
// ring eviction, the both-windows alert rule (short window = happening
// now, long window = not a blip), and the JSON verdict /healthz serves.
// Time is injected so every window transition is deterministic.
#include "obs/slo.hpp"

#include <gtest/gtest.h>

#include <string>

namespace appclass::obs {
namespace {

/// Short window 10 s, so the long window is 120 s.
SloOptions tight_options() {
  SloOptions options;
  options.objective = 0.9;  // 10% budget: burn = error_rate * 10
  options.freshness_threshold_s = 1.0;
  options.short_window_s = 10;
  return options;
}

TEST(ObsSloTest, EmptyTrackerIsHealthyWithZeroBurn) {
  const SloTracker slo(tight_options());
  const auto report = slo.report(1000);
  EXPECT_TRUE(report.healthy);
  EXPECT_FALSE(report.freshness.burning);
  EXPECT_FALSE(report.availability.burning);
  EXPECT_EQ(report.availability.short_window.good, 0u);
  EXPECT_EQ(report.availability.short_window.error_rate, 0.0);
  EXPECT_EQ(report.availability.short_window.burn_rate, 0.0);
}

TEST(ObsSloTest, BurnRateIsErrorRateOverBudget) {
  SloTracker slo(tight_options());
  // 3 good + 1 bad probe in one second: error rate 0.25, budget 0.1.
  for (int i = 0; i < 3; ++i) slo.record_availability(true, 100);
  slo.record_availability(false, 100);
  const auto report = slo.report(100);
  EXPECT_EQ(report.availability.short_window.good, 3u);
  EXPECT_EQ(report.availability.short_window.bad, 1u);
  EXPECT_DOUBLE_EQ(report.availability.short_window.error_rate, 0.25);
  EXPECT_DOUBLE_EQ(report.availability.short_window.burn_rate, 2.5);
}

TEST(ObsSloTest, FreshnessThresholdSplitsGoodFromBad) {
  SloTracker slo(tight_options());
  slo.record_freshness(0.5, 100);   // under the 1s threshold: good
  slo.record_freshness(1.0, 100);   // at the threshold: still good
  slo.record_freshness(3.0, 100);   // over: bad
  const auto report = slo.report(100);
  EXPECT_EQ(report.freshness.short_window.good, 2u);
  EXPECT_EQ(report.freshness.short_window.bad, 1u);
}

TEST(ObsSloTest, AlertOnlyWhenBothWindowsBurn) {
  SloTracker slo(tight_options());
  // A burst of failures at t=100 trips both the 10s and 120s windows.
  for (int i = 0; i < 20; ++i) slo.record_availability(false, 100);
  EXPECT_FALSE(slo.healthy(100));
  EXPECT_TRUE(slo.report(100).availability.burning);

  // 30s later the short window no longer covers the burst: the alert
  // clears even though the long window still remembers it. This is the
  // anti-flap half of the multi-window rule — recovery is fast.
  const auto later = slo.report(130);
  EXPECT_GT(later.availability.long_window.bad, 0u);
  EXPECT_EQ(later.availability.short_window.bad, 0u);
  EXPECT_FALSE(later.availability.burning);
  EXPECT_TRUE(later.healthy);
}

TEST(ObsSloTest, SteadyLowErrorRateUnderBudgetNeverAlerts) {
  SloTracker slo(tight_options());
  // 5% errors against a 10% budget: burn rate 0.5 in both windows.
  for (int t = 0; t < 100; ++t) {
    for (int i = 0; i < 19; ++i) slo.record_availability(true, t);
    slo.record_availability(false, t);
  }
  const auto report = slo.report(99);
  EXPECT_DOUBLE_EQ(report.availability.long_window.error_rate, 0.05);
  EXPECT_DOUBLE_EQ(report.availability.long_window.burn_rate, 0.5);
  EXPECT_TRUE(report.healthy);
}

TEST(ObsSloTest, RingEvictsSecondsBeyondTheLongWindow) {
  SloTracker slo(tight_options());
  for (int i = 0; i < 50; ++i) slo.record_availability(false, 100);
  // Advancing a full long window past the burst wipes every bucket.
  const auto report = slo.report(100 + 120);
  EXPECT_EQ(report.availability.long_window.bad, 0u);
  EXPECT_EQ(report.availability.long_window.good, 0u);
  EXPECT_TRUE(report.healthy);
}

TEST(ObsSloTest, BackwardsClockClampsToNewestBucket) {
  SloTracker slo(tight_options());
  slo.record_availability(true, 100);
  // A sample stamped in the past lands in the newest bucket instead of
  // resurrecting (or corrupting) an already-evicted second.
  slo.record_availability(false, 50);
  const auto report = slo.report(100);
  EXPECT_EQ(report.availability.short_window.good, 1u);
  EXPECT_EQ(report.availability.short_window.bad, 1u);
}

TEST(ObsSloTest, JsonVerdictCarriesHealthAndBothWindows) {
  SloTracker slo(tight_options());
  for (int i = 0; i < 20; ++i) slo.record_availability(false, 100);
  const std::string json = slo.to_json(100);
  EXPECT_NE(json.find("\"healthy\":false"), std::string::npos);
  EXPECT_NE(json.find("\"now_s\":100"), std::string::npos);
  EXPECT_NE(json.find("\"freshness\":"), std::string::npos);
  EXPECT_NE(json.find("\"availability\":"), std::string::npos);
  EXPECT_NE(json.find("\"window_s\":10"), std::string::npos);
  EXPECT_NE(json.find("\"window_s\":120"), std::string::npos);
  EXPECT_NE(json.find("\"burning\":true"), std::string::npos);
  EXPECT_EQ(json.back(), '\n');

  const std::string healthy = SloTracker(tight_options()).to_json(5);
  EXPECT_NE(healthy.find("\"healthy\":true"), std::string::npos);
}

}  // namespace
}  // namespace appclass::obs
