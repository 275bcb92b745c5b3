#include <gtest/gtest.h>

#include "core/online.hpp"
#include "core/trainer.hpp"
#include "monitor/harness.hpp"
#include "sched/migration.hpp"
#include "sim/testbed.hpp"
#include "workloads/phased_app.hpp"

namespace appclass {
namespace {

using workloads::Phase;

std::unique_ptr<sim::WorkloadModel> burner(double cores, double seconds,
                                           double ws_mb = 40.0) {
  Phase p;
  p.name = "burn";
  p.work_units = seconds;
  p.nominal_rate = 1.0;
  p.cpu_per_unit = cores;
  p.rate_jitter = 0.0;
  p.mem.working_set_mb = ws_mb;
  return std::make_unique<workloads::PhasedApp>("burner",
                                                std::vector<Phase>{p});
}

sim::Testbed two_vm_testbed(std::uint64_t seed = 3) {
  sim::TestbedOptions opts;
  opts.seed = seed;
  opts.four_vms = true;
  return sim::make_testbed(opts);
}

TEST(Migration, MovesInstanceAndPausesIt) {
  sim::Testbed tb = two_vm_testbed();
  const auto id = tb.engine->submit(tb.vm1, burner(1.0, 100.0, 40.0));
  tb.engine->run_for(10);
  const sim::SimTime downtime = tb.engine->migrate(id, tb.vm2);
  // 40 MB at 20 MB/s -> ~2-3 s downtime.
  EXPECT_GE(downtime, 2);
  EXPECT_LE(downtime, 3);
  EXPECT_EQ(tb.engine->instance(id).vm, tb.vm2);
  EXPECT_TRUE(tb.engine->run_until_done(1000));
  // Total elapsed ~ work + downtime.
  EXPECT_NEAR(static_cast<double>(tb.engine->instance(id).elapsed()),
              100.0 + static_cast<double>(downtime), 3.0);
}

TEST(Migration, NoopCases) {
  sim::Testbed tb = two_vm_testbed();
  const auto id = tb.engine->submit(tb.vm1, burner(1.0, 20.0));
  // Pending instance: no-op.
  EXPECT_EQ(tb.engine->migrate(id, tb.vm2), 0);
  tb.engine->step();
  // Same-VM migration: no-op.
  EXPECT_EQ(tb.engine->migrate(id, tb.vm1), 0);
  EXPECT_TRUE(tb.engine->run_until_done(100));
  // Finished instance: no-op.
  EXPECT_EQ(tb.engine->migrate(id, tb.vm2), 0);
}

TEST(Migration, DowntimeScalesWithWorkingSet) {
  sim::Testbed tb = two_vm_testbed();
  const auto small = tb.engine->submit(tb.vm1, burner(0.1, 500.0, 20.0));
  const auto large = tb.engine->submit(tb.vm2, burner(0.1, 500.0, 200.0));
  tb.engine->run_for(5);
  const auto d_small = tb.engine->migrate(small, tb.vm3);
  const auto d_large = tb.engine->migrate(large, tb.vm3);
  EXPECT_GT(d_large, 3 * d_small);
}

TEST(Migration, CheckpointTrafficVisibleToMonitor) {
  sim::Testbed tb = two_vm_testbed();
  double vm1_out = 0.0;
  tb.engine->set_snapshot_sink(
      [&](sim::VmId vm, const metrics::Snapshot& s) {
        if (vm == tb.vm1)
          vm1_out = std::max(vm1_out, s.get(metrics::MetricId::kBytesOut));
      });
  const auto id = tb.engine->submit(tb.vm1, burner(1.0, 100.0, 100.0));
  tb.engine->run_for(5);
  tb.engine->migrate(id, tb.vm2);
  tb.engine->step();
  EXPECT_GT(vm1_out, 5.0e6);  // checkpoint stream left through VM1's NIC
}

TEST(Migration, MigratedWorkContinuesOnTargetHostSpeed) {
  // Moving a CPU job from host A (1.0x) to host B (1.33x) speeds it up.
  sim::Testbed tb = two_vm_testbed();
  Phase p;
  p.work_units = 200.0;
  p.nominal_rate = 1.0;
  p.cpu_per_unit = 1.0;
  p.speed_sensitivity = 1.0;
  p.rate_jitter = 0.0;
  p.mem.working_set_mb = 20.0;
  const auto id = tb.engine->submit(
      tb.vm1, std::make_unique<workloads::PhasedApp>("cpu",
                                                     std::vector<Phase>{p}));
  tb.engine->run_for(100);  // 100 units done on host A
  tb.engine->migrate(id, tb.vm2);
  EXPECT_TRUE(tb.engine->run_until_done(1000));
  // Remaining 100 units at 1.33x: ~75 s + ~1-2 s downtime.
  EXPECT_NEAR(static_cast<double>(tb.engine->instance(id).elapsed()), 178.0,
              6.0);
}

TEST(StageAwareMigrator, MigratesOnBehaviourChange) {
  // An app that flips from CPU-bound to IO-bound; preferences send IO to
  // VM2. Verify the migrator reacts to the classifier's change event.
  static const core::ClassificationPipeline pipeline =
      core::make_trained_pipeline();

  sim::Testbed tb = two_vm_testbed(9);
  monitor::ClusterMonitor mon(*tb.engine);

  Phase cpu_phase;
  cpu_phase.name = "cpu";
  cpu_phase.work_units = 150.0;
  cpu_phase.nominal_rate = 1.0;
  cpu_phase.cpu_per_unit = 1.0;
  cpu_phase.cpu_user_fraction = 0.97;
  cpu_phase.mem.working_set_mb = 30.0;
  Phase io_phase;
  io_phase.name = "io";
  io_phase.work_units = 150.0;
  io_phase.nominal_rate = 1.0;
  io_phase.cpu_per_unit = 0.2;
  io_phase.cpu_user_fraction = 0.3;
  io_phase.read_blocks_per_unit = 4000.0;
  io_phase.write_blocks_per_unit = 4500.0;
  io_phase.mem.working_set_mb = 30.0;
  const auto app = tb.engine->submit(
      tb.vm1, std::make_unique<workloads::PhasedApp>(
                  "flipper", std::vector<Phase>{cpu_phase, io_phase}));

  core::OnlineClassifier classifier(
      pipeline, {.sampling_interval_s = 5, .window = 4, .stability = 2});
  mon.bus().subscribe(
      [&](const metrics::Snapshot& s) { classifier.observe(s); });

  sched::StagePreferences prefs;
  prefs.prefer(core::ApplicationClass::kIo, tb.vm2);
  sched::StageAwareMigrator migrator(*tb.engine, classifier, app, prefs);

  EXPECT_TRUE(tb.engine->run_until_done(5000));
  EXPECT_EQ(migrator.migrations(), 1);
  EXPECT_GT(migrator.total_downtime(), 0);
  EXPECT_EQ(tb.engine->instance(app).vm, tb.vm2);
}

TEST(StageAwareMigrator, NoPreferenceNoMigration) {
  static const core::ClassificationPipeline pipeline =
      core::make_trained_pipeline();
  sim::Testbed tb = two_vm_testbed(10);
  monitor::ClusterMonitor mon(*tb.engine);
  const auto app = tb.engine->submit(tb.vm1, burner(1.0, 120.0));
  core::OnlineClassifier classifier(
      pipeline, {.sampling_interval_s = 5, .window = 4, .stability = 2});
  mon.bus().subscribe(
      [&](const metrics::Snapshot& s) { classifier.observe(s); });
  sched::StageAwareMigrator migrator(*tb.engine, classifier, app,
                                     sched::StagePreferences{});
  EXPECT_TRUE(tb.engine->run_until_done(5000));
  EXPECT_EQ(migrator.migrations(), 0);
  EXPECT_EQ(tb.engine->instance(app).vm, tb.vm1);
}

}  // namespace
}  // namespace appclass
