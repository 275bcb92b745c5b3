#include "metrics/quality.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace appclass::metrics {
namespace {

Snapshot snap(SimTime t, const std::string& ip = "n") {
  Snapshot s;
  s.time = t;
  s.node_ip = ip;
  s.set(MetricId::kCpuUser, 50.0);
  s.set(MetricId::kCpuSystem, 10.0);
  s.set(MetricId::kIoBi, 1000.0);
  return s;
}

TEST(PlausibleRange, PercentagesAreBounded) {
  const PlausibleRange r = plausible_range(MetricId::kCpuUser);
  EXPECT_TRUE(r.contains(0.0));
  EXPECT_TRUE(r.contains(100.0));
  EXPECT_FALSE(r.contains(101.0));
  EXPECT_FALSE(r.contains(-1.0));
  EXPECT_FALSE(r.contains(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_FALSE(r.contains(std::numeric_limits<double>::infinity()));
}

TEST(PlausibleRange, EveryMetricHasANonEmptyRange) {
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    const PlausibleRange r = plausible_range(static_cast<MetricId>(i));
    EXPECT_LT(r.min, r.max) << info(static_cast<MetricId>(i)).name;
    EXPECT_GE(r.min, 0.0);
  }
}

TEST(SnapshotSanitizer, CleanStreamPassesUntouched) {
  SnapshotSanitizer sanitizer;
  for (SimTime t = 0; t < 10; ++t) {
    const SanitizeResult r = sanitizer.sanitize(snap(t));
    EXPECT_EQ(r.verdict, SanitizeVerdict::kAccepted);
    EXPECT_EQ(r.imputed_metrics, 0u);
    EXPECT_DOUBLE_EQ(r.snapshot.get(MetricId::kCpuUser), 50.0);
  }
  EXPECT_EQ(sanitizer.stats().accepted, 10u);
  EXPECT_EQ(sanitizer.stats().rejected(), 0u);
}

TEST(SnapshotSanitizer, ImputesNaNFromLastObservation) {
  SnapshotSanitizer sanitizer;
  EXPECT_TRUE(sanitizer.sanitize(snap(0)).ok());

  Snapshot s = snap(5);
  s.set(MetricId::kCpuUser, std::numeric_limits<double>::quiet_NaN());
  const SanitizeResult r = sanitizer.sanitize(s);
  EXPECT_EQ(r.verdict, SanitizeVerdict::kRepaired);
  EXPECT_EQ(r.imputed_metrics, 1u);
  EXPECT_DOUBLE_EQ(r.snapshot.get(MetricId::kCpuUser), 50.0);  // LOCF
  EXPECT_EQ(sanitizer.stats().imputed_values, 1u);
}

TEST(SnapshotSanitizer, ImputesOutOfRangeSpikes) {
  SnapshotSanitizer sanitizer;
  EXPECT_TRUE(sanitizer.sanitize(snap(0)).ok());

  Snapshot s = snap(5);
  s.set(MetricId::kCpuSystem, 4.2e17);  // garbage spike, far beyond 100%
  s.set(MetricId::kIoBi, -3.0);         // negative rate
  const SanitizeResult r = sanitizer.sanitize(s);
  EXPECT_EQ(r.verdict, SanitizeVerdict::kRepaired);
  EXPECT_EQ(r.imputed_metrics, 2u);
  EXPECT_DOUBLE_EQ(r.snapshot.get(MetricId::kCpuSystem), 10.0);
  EXPECT_DOUBLE_EQ(r.snapshot.get(MetricId::kIoBi), 1000.0);
}

TEST(SnapshotSanitizer, FallsBackToTrainingMeansAfterTtl) {
  SnapshotSanitizer sanitizer;
  std::array<double, kMetricCount> means{};
  means[index_of(MetricId::kCpuUser)] = 33.0;
  sanitizer.set_fallback(means);

  EXPECT_TRUE(sanitizer.sanitize(snap(0)).ok());
  Snapshot s = snap(85);  // last good observation is 85 s old, TTL is 60
  s.set(MetricId::kCpuUser, std::numeric_limits<double>::quiet_NaN());
  const SanitizeResult r = sanitizer.sanitize(s);
  EXPECT_EQ(r.verdict, SanitizeVerdict::kRepaired);
  EXPECT_DOUBLE_EQ(r.snapshot.get(MetricId::kCpuUser), 33.0);
}

TEST(SnapshotSanitizer, NeverObservedMetricUsesFallback) {
  SnapshotSanitizer sanitizer;
  std::array<double, kMetricCount> means{};
  means[index_of(MetricId::kCpuUser)] = 12.0;
  sanitizer.set_fallback(means);

  Snapshot s = snap(0);
  s.set(MetricId::kCpuUser, std::numeric_limits<double>::infinity());
  const SanitizeResult r = sanitizer.sanitize(s);
  EXPECT_EQ(r.verdict, SanitizeVerdict::kRepaired);
  EXPECT_DOUBLE_EQ(r.snapshot.get(MetricId::kCpuUser), 12.0);
}

TEST(SnapshotSanitizer, RejectsDuplicates) {
  SnapshotSanitizer sanitizer;
  EXPECT_TRUE(sanitizer.sanitize(snap(5)).ok());
  const SanitizeResult dup = sanitizer.sanitize(snap(5));
  EXPECT_EQ(dup.verdict, SanitizeVerdict::kRejectedDuplicate);
  EXPECT_EQ(sanitizer.stats().rejected_duplicate, 1u);
  // Same time on a different node is NOT a duplicate.
  EXPECT_TRUE(sanitizer.sanitize(snap(5, "other")).ok());
}

TEST(SnapshotSanitizer, RejectsStaleReplays) {
  SnapshotSanitizer sanitizer;  // 30 s staleness budget
  EXPECT_TRUE(sanitizer.sanitize(snap(100)).ok());
  const SanitizeResult stale = sanitizer.sanitize(snap(50));
  EXPECT_EQ(stale.verdict, SanitizeVerdict::kRejectedStale);
  EXPECT_EQ(sanitizer.stats().rejected_stale, 1u);
  // Mild reordering inside the budget is tolerated.
  EXPECT_TRUE(sanitizer.sanitize(snap(80)).ok());
}

TEST(SnapshotSanitizer, QuarantinesMostlyGarbageSnapshots) {
  SnapshotSanitizer sanitizer;  // quarantines above half repaired
  EXPECT_TRUE(sanitizer.sanitize(snap(0)).ok());

  Snapshot s = snap(5);
  for (std::size_t i = 0; i < kMetricCount; ++i)
    s.values[i] = std::numeric_limits<double>::quiet_NaN();
  const SanitizeResult r = sanitizer.sanitize(s);
  EXPECT_EQ(r.verdict, SanitizeVerdict::kQuarantined);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(sanitizer.stats().quarantined, 1u);
  // The garbage snapshot must not pollute the LOCF state.
  Snapshot later = snap(6);
  later.set(MetricId::kCpuUser, std::numeric_limits<double>::quiet_NaN());
  EXPECT_DOUBLE_EQ(sanitizer.sanitize(later).snapshot.get(MetricId::kCpuUser),
                   50.0);
}

TEST(SnapshotSanitizer, PerNodeStateIsIndependent) {
  SnapshotSanitizer sanitizer;  // 30 s staleness budget
  EXPECT_TRUE(sanitizer.sanitize(snap(1000, "a")).ok());
  // Node b starting at time 0 is not stale relative to node a's clock.
  EXPECT_TRUE(sanitizer.sanitize(snap(0, "b")).ok());
}

TEST(SnapshotSanitizer, StatsTalliesAddUp) {
  SnapshotSanitizer sanitizer;
  for (SimTime t = 0; t < 20; ++t) sanitizer.sanitize(snap(t));
  sanitizer.sanitize(snap(10));  // duplicate
  const auto& st = sanitizer.stats();
  EXPECT_EQ(st.processed(), 21u);
  EXPECT_EQ(st.accepted, 20u);
  EXPECT_EQ(st.rejected(), 1u);
}

}  // namespace
}  // namespace appclass::metrics
