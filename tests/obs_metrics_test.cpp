#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/trace.hpp"

namespace appclass::obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.add(-1.25);
  EXPECT_DOUBLE_EQ(g.value(), 2.25);
}

TEST(HistogramTest, BucketsCountAndSum) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);    // bucket 0 (<= 1)
  h.observe(1.0);    // bucket 0 (inclusive upper bound)
  h.observe(7.0);    // bucket 1
  h.observe(1000.0); // +Inf bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 1008.5);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 0u);
  EXPECT_EQ(h.bucket_count(3), 1u);
}

TEST(HistogramTest, ObserveManyChargesAllItems) {
  Histogram h({1.0, 10.0});
  h.observe_many(5.0, 1000);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.sum(), 5000.0);
  EXPECT_EQ(h.bucket_count(1), 1000u);
}

TEST(Registry, SameNameAndLabelsReturnsSameMetric) {
  MetricsRegistry registry;
  Counter& a = registry.counter("requests_total", {{"vm", "1"}});
  Counter& b = registry.counter("requests_total", {{"vm", "1"}});
  Counter& other = registry.counter("requests_total", {{"vm", "2"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &other);
  // Label order must not matter.
  Counter& c =
      registry.counter("multi", {{"a", "1"}, {"b", "2"}});
  Counter& d =
      registry.counter("multi", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&c, &d);
}

TEST(Registry, SnapshotReflectsValuesAndSorts) {
  MetricsRegistry registry;
  registry.counter("b_total").inc(2);
  registry.counter("a_total").inc(1);
  registry.gauge("load").set(0.75);
  registry.histogram("latency", {}, {0.1, 1.0}).observe(0.05);

  const RegistrySnapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].name, "a_total");
  EXPECT_EQ(snapshot.counters[1].name, "b_total");
  EXPECT_EQ(snapshot.counters[1].value, 2u);
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snapshot.gauges[0].value, 0.75);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].count, 1u);
  ASSERT_NE(snapshot.find_counter("a_total"), nullptr);
  EXPECT_EQ(snapshot.find_counter("missing"), nullptr);
  ASSERT_NE(snapshot.find_histogram("latency"), nullptr);
}

TEST(Registry, ResetValuesKeepsRegistrationsAndReferences) {
  MetricsRegistry registry;
  Counter& c = registry.counter("hits_total");
  Histogram& h = registry.histogram("t", {}, {1.0});
  c.inc(7);
  h.observe(0.5);
  registry.reset_values();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  // The same reference is still live and usable.
  c.inc();
  EXPECT_EQ(registry.snapshot().find_counter("hits_total")->value, 1u);
}

TEST(Registry, ConcurrentIncrementsFromManyThreads) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  Counter& counter = registry.counter("concurrent_total");
  Gauge& gauge = registry.gauge("concurrent_gauge");
  Histogram& hist = registry.histogram("concurrent_seconds", {}, {0.5, 1.5});

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&registry, &counter, &gauge, &hist] {
      for (int i = 0; i < kIters; ++i) {
        counter.inc();
        gauge.add(1.0);
        hist.observe(1.0);
        // Re-resolution under contention must return the same objects.
        if (i % 1000 == 0)
          EXPECT_EQ(&registry.counter("concurrent_total"), &counter);
      }
    });
  for (auto& t : threads) t.join();

  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_DOUBLE_EQ(gauge.value(), static_cast<double>(kThreads) * kIters);
  EXPECT_EQ(hist.count(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(hist.bucket_count(1), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_DOUBLE_EQ(hist.sum(), static_cast<double>(kThreads) * kIters);
}

/// Runs `body` once with tracing off and once with it on; tracing is
/// off again afterwards even when an assertion inside fails.
template <typename Body>
void with_tracing_off_and_on(Body body) {
  struct Restore {
    ~Restore() { set_tracing_enabled(false); }
  } restore;
  for (const bool traced : {false, true}) {
    SCOPED_TRACE(traced ? "tracing on" : "tracing off");
    set_tracing_enabled(traced);
    body(traced);
  }
}

TEST(TraceSpanTimer, ObservesOnDestruction) {
  with_tracing_off_and_on([](bool traced) {
    Histogram h({1.0});
    {
      TraceSpan span("timer_test", &h);
    }
    EXPECT_EQ(h.count(), 1u);
    EXPECT_GE(h.sum(), 0.0);
    // Traced, the exemplar is the one value observed; untraced, none.
    EXPECT_EQ(h.exemplar_trace_id() != 0, traced);
    if (traced) {
      EXPECT_EQ(h.exemplar_value(), h.sum());
    }
  });
}

TEST(TraceSpanTimer, StopAndObservePerItem) {
  with_tracing_off_and_on([](bool traced) {
    Histogram h({1.0});
    {
      TraceSpan span("timer_test", &h);
      span.stop_per_item(50);
    }  // destructor must not double-record
    EXPECT_EQ(h.count(), 50u);
    // The exemplar is the per-item mean, not the whole loop's time.
    if (traced) {
      EXPECT_EQ(h.exemplar_value() * 50.0, h.sum());
    }
  });
}

TEST(StageHistogram, RegistersOnGlobalRegistry) {
  Histogram& h = stage_histogram("obs_test_stage");
  h.observe(0.001);
  const auto snapshot = MetricsRegistry::global().snapshot();
  const HistogramSnapshot* found = snapshot.find_histogram(
      "appclass_stage_seconds", {{"stage", "obs_test_stage"}});
  ASSERT_NE(found, nullptr);
  EXPECT_GE(found->count, 1u);
}

// ---- exporter golden checks -----------------------------------------------

RegistrySnapshot golden_snapshot() {
  MetricsRegistry registry;
  registry.counter("requests_total", {{"vm", "0"}}).inc(3);
  registry.gauge("load").set(1.5);
  Histogram& h = registry.histogram("latency_seconds", {}, {0.1, 1.0});
  h.observe(0.05);
  h.observe(0.5);
  h.observe(2.0);
  return registry.snapshot();
}

TEST(Exporters, TableGolden) {
  const std::string table = to_table(golden_snapshot());
  EXPECT_NE(table.find("requests_total{vm=0}"), std::string::npos);
  EXPECT_NE(table.find("load"), std::string::npos);
  EXPECT_NE(table.find("latency_seconds"), std::string::npos);
  // count / mean columns for the histogram row.
  EXPECT_NE(table.find("3"), std::string::npos);
  EXPECT_NE(table.find("0.85"), std::string::npos);  // mean of the three
}

TEST(Exporters, JsonGolden) {
  const std::string json = to_json(golden_snapshot());
  EXPECT_EQ(json, R"({"counters":[{"name":"requests_total","labels":{"vm":"0"},"value":3}],)"
                  R"("gauges":[{"name":"load","labels":{},"value":1.5}],)"
                  R"("histograms":[{"name":"latency_seconds","labels":{},)"
                  R"("count":3,"sum":2.55,"mean":0.85,)"
                  R"("buckets":[{"le":0.1,"count":1},{"le":1,"count":1},)"
                  R"({"le":"+Inf","count":1}]}]})");
}

TEST(Exporters, PrometheusGolden) {
  const std::string prom = to_prometheus(golden_snapshot());
  EXPECT_EQ(prom,
            "# TYPE requests_total counter\n"
            "requests_total{vm=\"0\"} 3\n"
            "# TYPE load gauge\n"
            "load 1.5\n"
            "# TYPE latency_seconds histogram\n"
            "latency_seconds_bucket{le=\"0.1\"} 1\n"
            "latency_seconds_bucket{le=\"1\"} 2\n"
            "latency_seconds_bucket{le=\"+Inf\"} 3\n"
            "latency_seconds_sum 2.55\n"
            "latency_seconds_count 3\n");
}

TEST(Exporters, PrometheusSanitizesNames) {
  MetricsRegistry registry;
  registry.counter("weird.name-x").inc();
  const std::string prom = to_prometheus(registry.snapshot());
  EXPECT_NE(prom.find("weird_name_x 1"), std::string::npos);
}

TEST(Exporters, EmptySnapshot) {
  const RegistrySnapshot empty;
  EXPECT_EQ(to_table(empty), "(no metrics recorded)\n");
  EXPECT_EQ(to_json(empty),
            "{\"counters\":[],\"gauges\":[],\"histograms\":[]}");
  EXPECT_EQ(to_prometheus(empty), "");
}

}  // namespace
}  // namespace appclass::obs
