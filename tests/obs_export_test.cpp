// Prometheus text exposition (0.0.4) conformance and JSON exemplar
// rendering, checked against a local registry so global state cannot
// interfere.
#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace appclass {
namespace {

TEST(ObsExport, LabelValuesAreEscaped) {
  obs::MetricsRegistry registry;
  // Raw label value: a\b"c<newline>d — every character class the
  // exposition format must escape.
  registry.counter("appclass_export_escape_total",
                   {{"path", "a\\b\"c\nd"}})
      .inc(3);
  const std::string prom = obs::to_prometheus(registry.snapshot());
  // Backslash doubles, quote gains a backslash, newline becomes \n.
  EXPECT_NE(prom.find("appclass_export_escape_total"
                      "{path=\"a\\\\b\\\"c\\nd\"} 3"),
            std::string::npos)
      << prom;
  // No raw newline may survive inside a label value: every line must
  // start with the metric name or a comment.
  std::size_t pos = 0;
  while ((pos = prom.find('\n', pos)) != std::string::npos) {
    ++pos;
    if (pos >= prom.size()) break;
    EXPECT_TRUE(prom[pos] == '#' || prom[pos] == 'a') << prom.substr(pos, 20);
  }
}

TEST(ObsExport, HistogramBucketsAreCumulativeAndInfMatchesCount) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("appclass_export_latency_seconds",
                                         {}, {1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(5.0);
  const std::string prom = obs::to_prometheus(registry.snapshot());
  EXPECT_NE(prom.find("# TYPE appclass_export_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(
      prom.find("appclass_export_latency_seconds_bucket{le=\"1\"} 1"),
      std::string::npos)
      << prom;
  EXPECT_NE(
      prom.find("appclass_export_latency_seconds_bucket{le=\"2\"} 2"),
      std::string::npos)
      << prom;
  // The +Inf cumulative bucket always equals _count.
  EXPECT_NE(
      prom.find("appclass_export_latency_seconds_bucket{le=\"+Inf\"} 3"),
      std::string::npos)
      << prom;
  EXPECT_NE(prom.find("appclass_export_latency_seconds_sum 7"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("appclass_export_latency_seconds_count 3"),
            std::string::npos)
      << prom;
}

TEST(ObsExport, TableQuantileColumnsAreBucketUpperBounds) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("appclass_export_stage_seconds",
                                         {}, {0.001, 0.01, 0.1});
  for (int i = 0; i < 10; ++i) h.observe(0.0005);
  for (int i = 0; i < 8; ++i) h.observe(0.005);
  h.observe(0.05);
  h.observe(5.0);  // overflow bucket
  registry.histogram("appclass_export_unused_seconds", {}, {1.0});
  const auto snapshot = registry.snapshot();

  // 20 samples: the 10th lands in the first bucket, the 18th in the
  // second, the 20th past the last bound.
  const obs::HistogramSnapshot* stage =
      snapshot.find_histogram("appclass_export_stage_seconds");
  ASSERT_NE(stage, nullptr);
  EXPECT_EQ(stage->quantile_bound(0.50), 0.001);
  EXPECT_EQ(stage->quantile_bound(0.90), 0.01);
  EXPECT_TRUE(std::isinf(stage->quantile_bound(0.99)));
  EXPECT_TRUE(std::isnan(
      snapshot.find_histogram("appclass_export_unused_seconds")
          ->quantile_bound(0.50)));

  // Columns after the name: count, mean, p50, p90, p99.
  const std::string table = obs::to_table(snapshot);
  const auto columns = [&table](const std::string& name) {
    const std::size_t at = table.find(name + " ");
    EXPECT_NE(at, std::string::npos) << table;
    std::istringstream line(table.substr(at, table.find('\n', at) - at));
    std::vector<std::string> out;
    for (std::string cell; line >> cell;) out.push_back(cell);
    return std::vector<std::string>(out.begin() + 1, out.end());
  };
  const auto stage_cells = columns("appclass_export_stage_seconds");
  ASSERT_EQ(stage_cells.size(), 5u);
  EXPECT_EQ(stage_cells[0], "20");
  EXPECT_EQ(stage_cells[2], "0.001");
  EXPECT_EQ(stage_cells[3], "0.01");
  EXPECT_EQ(stage_cells[4], "inf");
  EXPECT_EQ(columns("appclass_export_unused_seconds"),
            (std::vector<std::string>{"0", "-", "-", "-", "-"}));
}

TEST(ObsExport, TypeLineEmittedOncePerFamily) {
  obs::MetricsRegistry registry;
  registry.counter("appclass_export_multi_total", {{"path", "/a"}}).inc();
  registry.counter("appclass_export_multi_total", {{"path", "/b"}}).inc();
  const std::string prom = obs::to_prometheus(registry.snapshot());
  const std::string type_line = "# TYPE appclass_export_multi_total counter";
  const std::size_t first = prom.find(type_line);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(prom.find(type_line, first + 1), std::string::npos);
}

TEST(ObsExport, RenderingIsStableAcrossSnapshots) {
  obs::MetricsRegistry registry;
  // Registered out of order; the snapshot sorts by (name, labels).
  registry.counter("appclass_export_zeta_total").inc(1);
  registry.gauge("appclass_export_alpha").set(2.0);
  registry.counter("appclass_export_beta_total", {{"w", "1"}}).inc(4);
  registry.counter("appclass_export_beta_total", {{"w", "0"}}).inc(3);
  registry.histogram("appclass_export_mid_seconds", {}, {1.0}).observe(0.5);

  const std::string first = obs::to_prometheus(registry.snapshot());
  const std::string second = obs::to_prometheus(registry.snapshot());
  EXPECT_EQ(first, second);

  // Label sets of one family render in sorted order.
  EXPECT_LT(first.find("appclass_export_beta_total{w=\"0\"}"),
            first.find("appclass_export_beta_total{w=\"1\"}"));
}

TEST(ObsExport, JsonCarriesExemplarPrometheusDoesNot) {
  obs::MetricsRegistry registry;
  obs::Histogram& h =
      registry.histogram("appclass_export_traced_seconds", {}, {1.0});
  h.observe(0.25);
  h.set_exemplar(0.25, 0xabcULL);
  const auto snapshot = registry.snapshot();

  const std::string json = obs::to_json(snapshot);
  EXPECT_NE(json.find("\"exemplar\":{\"trace_id\":\"abc\",\"value\":0.25}"),
            std::string::npos)
      << json;
  const std::string prom = obs::to_prometheus(snapshot);
  EXPECT_EQ(prom.find("exemplar"), std::string::npos);
  EXPECT_EQ(prom.find("abc"), std::string::npos);
}

TEST(ObsExport, NoExemplarFieldWhenNoneRecorded) {
  obs::MetricsRegistry registry;
  registry.histogram("appclass_export_plain_seconds", {}, {1.0}).observe(0.5);
  const std::string json = obs::to_json(registry.snapshot());
  EXPECT_EQ(json.find("exemplar"), std::string::npos);
}

}  // namespace
}  // namespace appclass
