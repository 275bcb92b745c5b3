#include "sched/advisor.hpp"

#include <gtest/gtest.h>

#include "monitor/gmetad.hpp"
#include "monitor/harness.hpp"
#include "sim/testbed.hpp"
#include "workloads/catalog.hpp"

namespace appclass::sched {
namespace {

using core::ApplicationClass;
using metrics::MetricId;

metrics::Snapshot make_node(const std::string& ip, double cpu_idle,
                            double io_blocks, double net_bytes,
                            double mem_free_frac) {
  metrics::Snapshot s;
  s.node_ip = ip;
  s.time = 0;
  s.set(MetricId::kCpuIdle, cpu_idle);
  s.set(MetricId::kIoBi, io_blocks / 2);
  s.set(MetricId::kIoBo, io_blocks / 2);
  s.set(MetricId::kBytesIn, net_bytes / 2);
  s.set(MetricId::kBytesOut, net_bytes / 2);
  s.set(MetricId::kMemTotal, 256.0 * 1024);
  s.set(MetricId::kMemFree, mem_free_frac * 256.0 * 1024);
  return s;
}

struct AdvisorFixture {
  monitor::MetricBus bus;
  monitor::Gmetad gmetad{bus};
  std::vector<std::string> candidates = {"cpu-busy", "io-busy", "net-busy"};

  AdvisorFixture() {
    bus.announce(make_node("cpu-busy", 5.0, 500.0, 1.0e6, 0.5));
    bus.announce(make_node("io-busy", 80.0, 9500.0, 1.0e6, 0.5));
    bus.announce(make_node("net-busy", 80.0, 500.0, 60.0e6, 0.5));
  }

  double headroom_of(ApplicationClass cls, const std::string& ip) const {
    return headroom(cls, *gmetad.latest(ip));
  }

  /// The candidate with the least headroom for `cls`.
  std::string most_contended(ApplicationClass cls) const {
    std::string worst = candidates.front();
    for (const auto& ip : candidates)
      if (headroom_of(cls, ip) < headroom_of(cls, worst)) worst = ip;
    return worst;
  }
};

TEST(Advisor, CpuJobAvoidsCpuBusyNode) {
  AdvisorFixture f;
  EXPECT_EQ(f.most_contended(ApplicationClass::kCpu), "cpu-busy");
}

TEST(Advisor, IoJobAvoidsIoBusyNode) {
  AdvisorFixture f;
  EXPECT_EQ(f.most_contended(ApplicationClass::kIo), "io-busy");
  EXPECT_LT(f.headroom_of(ApplicationClass::kIo, "io-busy"), 0.3);
}

TEST(Advisor, NetworkJobAvoidsNetBusyNode) {
  AdvisorFixture f;
  EXPECT_EQ(f.most_contended(ApplicationClass::kNetwork), "net-busy");
}

TEST(Advisor, HeadroomFormulas) {
  AdvisorFixture f;
  const auto cpu_busy = *f.gmetad.latest("cpu-busy");
  EXPECT_NEAR(headroom(ApplicationClass::kCpu, cpu_busy), 0.05,
              1e-9);
  const auto io_busy = *f.gmetad.latest("io-busy");
  EXPECT_NEAR(headroom(ApplicationClass::kIo, io_busy),
              1.0 - 9500.0 / 11000.0, 1e-9);
  EXPECT_DOUBLE_EQ(headroom(ApplicationClass::kIdle, io_busy), 1.0);
}

TEST(Advisor, MemoryHeadroomCountsCacheAsAvailable) {
  AdvisorFixture f;
  metrics::Snapshot s = make_node("m", 50.0, 0.0, 0.0, 0.25);
  s.set(MetricId::kMemCached, 0.25 * 256.0 * 1024);
  EXPECT_NEAR(headroom(ApplicationClass::kMemory, s), 0.5, 1e-9);
}

TEST(Advisor, LiveClusterIntegration) {
  sim::TestbedOptions opts;
  opts.four_vms = true;
  sim::Testbed tb = sim::make_testbed(opts);
  monitor::ClusterMonitor mon(*tb.engine);
  monitor::Gmetad gmetad(mon.bus());
  // VM2 is CPU-saturated; VM3 is disk-saturated.
  tb.engine->submit(tb.vm2, workloads::make_ch3d(500.0));
  tb.engine->submit(tb.vm3, workloads::make_postmark());
  tb.engine->run_for(60);
  const auto vm2 = gmetad.latest("10.0.0.2");
  const auto vm3 = gmetad.latest("10.0.0.3");
  ASSERT_TRUE(vm2.has_value());
  ASSERT_TRUE(vm3.has_value());
  // A new CPU job has more room on the disk-busy VM, and vice versa.
  EXPECT_GT(headroom(ApplicationClass::kCpu, *vm3),
            headroom(ApplicationClass::kCpu, *vm2));
  EXPECT_GT(headroom(ApplicationClass::kIo, *vm2),
            headroom(ApplicationClass::kIo, *vm3));
}

}  // namespace
}  // namespace appclass::sched
