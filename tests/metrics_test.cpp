#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "metrics/schema.hpp"
#include "metrics/snapshot.hpp"

namespace appclass::metrics {
namespace {

TEST(Schema, HasExactly33Metrics) {
  EXPECT_EQ(kMetricCount, 33u);
  EXPECT_EQ(schema().size(), 33u);
  EXPECT_EQ(kGangliaDefaultCount, 29u);
}

TEST(Schema, IdsMatchPositions) {
  const auto s = schema();
  for (std::size_t i = 0; i < kMetricCount; ++i)
    EXPECT_EQ(index_of(s[i].id), i);
}

TEST(Schema, NamesAreUniqueAndNonEmpty) {
  std::set<std::string_view> names;
  for (const auto& mi : schema()) {
    EXPECT_FALSE(mi.name.empty());
    EXPECT_TRUE(names.insert(mi.name).second) << mi.name;
  }
}

TEST(Schema, FindMetricRoundTrips) {
  for (const auto& mi : schema()) {
    const auto found = find_metric(mi.name);
    ASSERT_TRUE(found.has_value()) << mi.name;
    EXPECT_EQ(*found, mi.id);
  }
  EXPECT_FALSE(find_metric("no_such_metric").has_value());
}

TEST(Schema, VmstatAdditionsFollowGangliaDefaults) {
  EXPECT_EQ(index_of(MetricId::kIoBi), kGangliaDefaultCount);
  EXPECT_EQ(index_of(MetricId::kSwapOut), kMetricCount - 1);
}

TEST(Schema, ExpertMetricsMatchTable1) {
  // Table 1: CPU system/user, bytes in/out, IO bi/bo, swap in/out.
  EXPECT_EQ(kExpertMetricCount, 8u);
  EXPECT_EQ(kExpertMetrics[0], MetricId::kCpuSystem);
  EXPECT_EQ(kExpertMetrics[1], MetricId::kCpuUser);
  EXPECT_EQ(kExpertMetrics[7], MetricId::kSwapOut);
}

TEST(Snapshot, GetSetRoundTrip) {
  Snapshot s;
  s.set(MetricId::kBytesIn, 12345.0);
  EXPECT_DOUBLE_EQ(s.get(MetricId::kBytesIn), 12345.0);
  EXPECT_DOUBLE_EQ(s.get(MetricId::kBytesOut), 0.0);
}

Snapshot make_snapshot(SimTime t, const std::string& ip, double base) {
  Snapshot s;
  s.time = t;
  s.node_ip = ip;
  for (std::size_t i = 0; i < kMetricCount; ++i)
    s.values[i] = base + static_cast<double>(i);
  return s;
}

TEST(DataPool, AddAndAccess) {
  DataPool pool;
  pool.add(make_snapshot(0, "10.0.0.1", 0.0));
  pool.add(make_snapshot(5, "10.0.0.1", 1.0));
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.node_ip(), "10.0.0.1");
  EXPECT_EQ(pool.start_time(), 0);
  EXPECT_EQ(pool.end_time(), 5);
}

TEST(DataPool, SelectedMetricExtraction) {
  DataPool pool;
  pool.add(make_snapshot(0, "n", 10.0));
  const std::vector<MetricId> sel = {MetricId::kCpuUser, MetricId::kIoBi};
  const auto m = pool.to_observation_major(sel);
  EXPECT_EQ(m.rows(), 1u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 10.0 + index_of(MetricId::kCpuUser));
  EXPECT_DOUBLE_EQ(m.at(0, 1), 10.0 + index_of(MetricId::kIoBi));
}

TEST(DataPoolCsv, RoundTripsExactly) {
  DataPool pool;
  pool.add(make_snapshot(0, "10.0.0.1", 0.5));
  pool.add(make_snapshot(5, "10.0.0.1", 2.25));
  const std::string csv = to_csv(pool);
  const DataPool restored = from_csv(csv);
  ASSERT_EQ(restored.size(), 2u);
  EXPECT_EQ(restored[0].node_ip, "10.0.0.1");
  EXPECT_EQ(restored[1].time, 5);
  for (std::size_t i = 0; i < kMetricCount; ++i)
    EXPECT_DOUBLE_EQ(restored[1].values[i], pool[1].values[i]);
}

TEST(DataPoolCsv, HeaderListsAllMetricNames) {
  const DataPool pool;
  const std::string csv = to_csv(pool);
  for (const auto& mi : schema())
    EXPECT_NE(csv.find(std::string(mi.name)), std::string::npos) << mi.name;
}

TEST(DataPoolCsv, RejectsEmptyInput) {
  EXPECT_THROW(from_csv(""), std::runtime_error);
}

TEST(DataPoolCsv, RejectsWrongColumnCount) {
  EXPECT_THROW(from_csv("time,node_ip,cpu_user\n"), std::runtime_error);
}

TEST(DataPoolCsv, RejectsNonNumericCell) {
  DataPool pool;
  pool.add(make_snapshot(0, "n", 1.0));
  std::string csv = to_csv(pool);
  const auto pos = csv.rfind("1");
  csv.replace(pos, 1, "x");
  EXPECT_THROW(from_csv(csv), std::runtime_error);
}

}  // namespace
}  // namespace appclass::metrics
