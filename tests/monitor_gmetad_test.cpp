#include "monitor/gmetad.hpp"

#include <gtest/gtest.h>

#include "monitor/harness.hpp"
#include "obs/metrics.hpp"
#include "sim/testbed.hpp"
#include "workloads/catalog.hpp"

namespace appclass::monitor {
namespace {

metrics::Snapshot node_snapshot(const std::string& ip, metrics::SimTime t,
                                double cpu_idle) {
  metrics::Snapshot s;
  s.node_ip = ip;
  s.time = t;
  s.set(metrics::MetricId::kCpuIdle, cpu_idle);
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

// Nodes go dead once they fall more than 60 s behind the newest
// announcement; every test below advances cluster time past that.
TEST(Gmetad, TracksLatestPerNode) {
  MetricBus bus;
  Gmetad gmetad(bus);
  bus.announce(node_snapshot("a", 0, 10.0));
  bus.announce(node_snapshot("a", 5, 90.0));
  ASSERT_TRUE(gmetad.latest("a").has_value());
  EXPECT_DOUBLE_EQ(gmetad.latest("a")->get(metrics::MetricId::kCpuIdle),
                   90.0);
  EXPECT_FALSE(gmetad.latest("zzz").has_value());
}

TEST(Gmetad, StaleNodesExcluded) {
  MetricBus bus;
  Gmetad gmetad(bus);
  const std::uint64_t deaths = node_deaths();
  bus.announce(node_snapshot("old", 0, 50.0));
  bus.announce(node_snapshot("fresh", 100, 80.0));
  EXPECT_EQ(node_deaths(), deaths + 1);
  // The stale node's latest snapshot is still retrievable.
  ASSERT_TRUE(gmetad.latest("old").has_value());
  EXPECT_EQ(gmetad.latest("old")->time, 0);
}

TEST(Gmetad, StaleNodeRevives) {
  MetricBus bus;
  Gmetad gmetad(bus);
  const std::uint64_t deaths = node_deaths();
  const std::uint64_t recoveries = node_recoveries();
  bus.announce(node_snapshot("a", 0, 50.0));
  bus.announce(node_snapshot("b", 100, 80.0));
  EXPECT_EQ(node_deaths(), deaths + 1);
  bus.announce(node_snapshot("a", 101, 55.0));
  EXPECT_EQ(node_recoveries(), recoveries + 1);
  EXPECT_DOUBLE_EQ(gmetad.latest("a")->get(metrics::MetricId::kCpuIdle),
                   55.0);
}

TEST(Gmetad, EmitsDeathEventWhenNodeGoesSilent) {
  MetricBus bus;
  Gmetad gmetad(bus);
  const std::uint64_t deaths = node_deaths();
  const std::uint64_t recoveries = node_recoveries();

  bus.announce(node_snapshot("quiet", 0, 50.0));
  bus.announce(node_snapshot("chatty", 10, 80.0));
  EXPECT_EQ(node_deaths(), deaths);  // both inside the liveness window

  // Cluster time advances past quiet's timeout via chatty's announcement.
  bus.announce(node_snapshot("chatty", 100, 80.0));
  EXPECT_EQ(node_deaths(), deaths + 1);
  // Death is edge-triggered: further announcements do not repeat it.
  bus.announce(node_snapshot("chatty", 110, 80.0));
  EXPECT_EQ(node_deaths(), deaths + 1);
  EXPECT_EQ(node_recoveries(), recoveries);
}

TEST(Gmetad, EmitsRecoveryEventWhenNodeReturns) {
  MetricBus bus;
  Gmetad gmetad(bus);
  const std::uint64_t deaths = node_deaths();
  const std::uint64_t recoveries = node_recoveries();

  bus.announce(node_snapshot("a", 0, 50.0));
  bus.announce(node_snapshot("b", 100, 80.0));  // a declared dead
  EXPECT_EQ(node_deaths(), deaths + 1);
  EXPECT_EQ(node_recoveries(), recoveries);
  bus.announce(node_snapshot("a", 120, 55.0));  // a recovers
  EXPECT_EQ(node_recoveries(), recoveries + 1);
  EXPECT_EQ(node_deaths(), deaths + 1);
  // Recovery is edge-triggered too.
  bus.announce(node_snapshot("a", 125, 55.0));
  EXPECT_EQ(node_recoveries(), recoveries + 1);
}

TEST(Gmetad, EmptyClusterReturnsNullopt) {
  MetricBus bus;
  Gmetad gmetad(bus);
  EXPECT_FALSE(gmetad.latest("10.0.0.1").has_value());
}

TEST(Gmetad, IntegratesWithSimulatedCluster) {
  sim::TestbedOptions opts;
  opts.four_vms = true;
  sim::Testbed tb = sim::make_testbed(opts);
  monitor::ClusterMonitor mon(*tb.engine);
  Gmetad gmetad(mon.bus());
  const std::uint64_t deaths = node_deaths();
  tb.engine->submit(tb.vm1, workloads::make_ch3d(200.0));
  tb.engine->run_for(60);
  EXPECT_EQ(node_deaths(), deaths);  // every VM keeps announcing
  // VM1 runs the CPU hog: it has the busiest CPU on the subnet.
  const auto vm1 = gmetad.latest("10.0.0.1");
  ASSERT_TRUE(vm1.has_value());
  for (const char* ip : {"10.0.0.2", "10.0.0.3", "10.0.0.4"}) {
    const auto other = gmetad.latest(ip);
    ASSERT_TRUE(other.has_value()) << ip;
    EXPECT_GT(vm1->get(metrics::MetricId::kCpuUser),
              other->get(metrics::MetricId::kCpuUser))
        << ip;
  }
}

}  // namespace
}  // namespace appclass::monitor
