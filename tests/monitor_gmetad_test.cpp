#include "monitor/gmetad.hpp"

#include <gtest/gtest.h>

#include "monitor/harness.hpp"
#include "obs/metrics.hpp"
#include "sim/testbed.hpp"
#include "workloads/catalog.hpp"

namespace appclass::monitor {
namespace {

metrics::Snapshot node_snapshot(const std::string& ip, metrics::SimTime t,
                                double cpu_idle, double io = 0.0) {
  metrics::Snapshot s;
  s.node_ip = ip;
  s.time = t;
  s.set(metrics::MetricId::kCpuIdle, cpu_idle);
  s.set(metrics::MetricId::kIoBi, io);
  return s;
}

// Liveness transitions are observable as the process-wide counters.
std::uint64_t node_deaths() {
  return obs::MetricsRegistry::global()
      .counter("appclass_gmetad_node_deaths_total")
      .value();
}

std::uint64_t node_recoveries() {
  return obs::MetricsRegistry::global()
      .counter("appclass_gmetad_node_recoveries_total")
      .value();
}

std::size_t live_count(const Gmetad& gmetad) {
  const auto sum = gmetad.summary(metrics::MetricId::kCpuIdle);
  return sum ? sum->nodes : 0;
}

TEST(Gmetad, TracksLatestPerNode) {
  MetricBus bus;
  Gmetad gmetad(bus);
  bus.announce(node_snapshot("a", 0, 10.0));
  bus.announce(node_snapshot("a", 5, 90.0));
  ASSERT_TRUE(gmetad.latest("a").has_value());
  EXPECT_DOUBLE_EQ(gmetad.latest("a")->get(metrics::MetricId::kCpuIdle),
                   90.0);
  EXPECT_FALSE(gmetad.latest("zzz").has_value());
  EXPECT_EQ(gmetad.node_count(), 1u);
}

TEST(Gmetad, SummaryOverLiveNodes) {
  MetricBus bus;
  Gmetad gmetad(bus);
  bus.announce(node_snapshot("a", 0, 20.0));
  bus.announce(node_snapshot("b", 0, 60.0));
  bus.announce(node_snapshot("c", 0, 100.0));
  const auto sum = gmetad.summary(metrics::MetricId::kCpuIdle);
  ASSERT_TRUE(sum.has_value());
  EXPECT_EQ(sum->nodes, 3u);
  EXPECT_DOUBLE_EQ(sum->sum, 180.0);
  EXPECT_DOUBLE_EQ(sum->mean, 60.0);
  EXPECT_DOUBLE_EQ(sum->min, 20.0);
  EXPECT_DOUBLE_EQ(sum->max, 100.0);
}

TEST(Gmetad, StaleNodesExcluded) {
  MetricBus bus;
  Gmetad gmetad(bus, /*liveness_timeout_s=*/30);
  bus.announce(node_snapshot("old", 0, 50.0));
  bus.announce(node_snapshot("fresh", 100, 80.0));
  const auto sum = gmetad.summary(metrics::MetricId::kCpuIdle);
  ASSERT_TRUE(sum.has_value());
  EXPECT_EQ(sum->nodes, 1u);
  EXPECT_DOUBLE_EQ(sum->sum, 80.0);
  EXPECT_EQ(gmetad.argmax(metrics::MetricId::kCpuIdle), "fresh");
  // The stale node's latest snapshot is still retrievable.
  EXPECT_TRUE(gmetad.latest("old").has_value());
}

TEST(Gmetad, StaleNodeRevives) {
  MetricBus bus;
  Gmetad gmetad(bus, 30);
  bus.announce(node_snapshot("a", 0, 50.0));
  bus.announce(node_snapshot("b", 100, 80.0));
  EXPECT_EQ(live_count(gmetad), 1u);
  bus.announce(node_snapshot("a", 101, 55.0));
  EXPECT_EQ(live_count(gmetad), 2u);
}

TEST(Gmetad, EmitsDeathEventWhenNodeGoesSilent) {
  MetricBus bus;
  Gmetad gmetad(bus, /*liveness_timeout_s=*/30);
  const std::uint64_t deaths = node_deaths();

  bus.announce(node_snapshot("quiet", 0, 50.0));
  bus.announce(node_snapshot("chatty", 10, 80.0));
  EXPECT_EQ(node_deaths(), deaths);  // both inside the liveness window

  // Cluster time advances past quiet's timeout via chatty's announcement.
  bus.announce(node_snapshot("chatty", 100, 80.0));
  EXPECT_EQ(node_deaths(), deaths + 1);
  EXPECT_EQ(live_count(gmetad), 1u);
  EXPECT_EQ(gmetad.argmax(metrics::MetricId::kCpuIdle), "chatty");
  // Death is edge-triggered: further announcements do not repeat it.
  bus.announce(node_snapshot("chatty", 110, 80.0));
  EXPECT_EQ(node_deaths(), deaths + 1);
}

TEST(Gmetad, EmitsRecoveryEventWhenNodeReturns) {
  MetricBus bus;
  Gmetad gmetad(bus, 30);
  const std::uint64_t deaths = node_deaths();
  const std::uint64_t recoveries = node_recoveries();

  bus.announce(node_snapshot("a", 0, 50.0));
  bus.announce(node_snapshot("b", 100, 80.0));  // a declared dead
  EXPECT_EQ(node_deaths(), deaths + 1);
  EXPECT_EQ(node_recoveries(), recoveries);
  bus.announce(node_snapshot("a", 120, 55.0));  // a recovers
  EXPECT_EQ(node_recoveries(), recoveries + 1);
  EXPECT_EQ(node_deaths(), deaths + 1);
  EXPECT_EQ(live_count(gmetad), 2u);
}

TEST(Gmetad, ArgmaxArgmin) {
  MetricBus bus;
  Gmetad gmetad(bus);
  bus.announce(node_snapshot("busy", 0, 5.0, 9000.0));
  bus.announce(node_snapshot("calm", 0, 95.0, 100.0));
  EXPECT_EQ(gmetad.argmax(metrics::MetricId::kCpuIdle), "calm");
  EXPECT_EQ(gmetad.argmax(metrics::MetricId::kIoBi), "busy");
}

TEST(Gmetad, EmptyClusterReturnsNullopt) {
  MetricBus bus;
  Gmetad gmetad(bus);
  EXPECT_FALSE(gmetad.summary(metrics::MetricId::kCpuIdle).has_value());
  EXPECT_FALSE(gmetad.argmax(metrics::MetricId::kCpuIdle).has_value());
}

TEST(Gmetad, IntegratesWithSimulatedCluster) {
  sim::TestbedOptions opts;
  opts.four_vms = true;
  sim::Testbed tb = sim::make_testbed(opts);
  monitor::ClusterMonitor mon(*tb.engine);
  Gmetad gmetad(mon.bus());
  tb.engine->submit(tb.vm1, workloads::make_ch3d(200.0));
  tb.engine->run_for(60);
  EXPECT_EQ(gmetad.node_count(), 4u);
  EXPECT_EQ(live_count(gmetad), 4u);
  // VM1 runs the CPU hog: it has the busiest CPU on the subnet.
  EXPECT_EQ(gmetad.argmax(metrics::MetricId::kCpuUser), "10.0.0.1");
}

}  // namespace
}  // namespace appclass::monitor
