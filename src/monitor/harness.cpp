#include "monitor/harness.hpp"

#include "common/assert.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace appclass::monitor {
namespace {

struct HarnessMetrics {
  obs::Histogram& profile_seconds = obs::stage_histogram("monitor_profile");
  obs::Counter& snapshots = obs::MetricsRegistry::global().counter(
      "appclass_monitor_snapshots_total");
  obs::Counter& ticks = obs::MetricsRegistry::global().counter(
      "appclass_monitor_ticks_total");
  obs::Counter& runs = obs::MetricsRegistry::global().counter(
      "appclass_monitor_profile_runs_total");
};

HarnessMetrics& harness_metrics() {
  static HarnessMetrics metrics;
  return metrics;
}

}  // namespace

ClusterMonitor::ClusterMonitor(sim::Engine& engine) {
  gmonds_.reserve(engine.vm_count());
  for (sim::VmId v = 0; v < engine.vm_count(); ++v)
    gmonds_.push_back(
        std::make_unique<Gmond>(engine.vm(v).spec().ip, bus_));
  obs::Counter& snapshot_counter = harness_metrics().snapshots;
  engine.set_snapshot_sink(
      [this, &snapshot_counter](sim::VmId vm,
                                const metrics::Snapshot& snapshot) {
        APPCLASS_ASSERT(vm < gmonds_.size());
        snapshot_counter.inc();
        gmonds_[vm]->observe(snapshot);
      });
}

ProfiledRun profile_instance(sim::Engine& engine, ClusterMonitor& mon,
                             sim::InstanceId instance,
                             int sampling_interval_s,
                             sim::SimTime max_ticks) {
  const sim::InstanceInfo before = engine.instance(instance);
  const std::string target_ip = engine.vm(before.vm).spec().ip;

  HarnessMetrics& hm = harness_metrics();
  obs::TraceSpan profile_span("monitor_profile", &hm.profile_seconds);
  PerformanceProfiler profiler(mon.bus(), sampling_interval_s);
  profiler.start();

  const sim::SimTime start_tick = engine.now();
  const sim::SimTime deadline = engine.now() + max_ticks;
  while (engine.instance(instance).state != sim::InstanceState::kFinished &&
         engine.now() < deadline)
    engine.step();

  profiler.stop();
  hm.ticks.inc(static_cast<std::uint64_t>(engine.now() - start_tick));
  hm.runs.inc();

  ProfiledRun run;
  run.pool = PerformanceFilter::extract(profiler.raw_samples(), target_ip);
  const sim::InstanceInfo after = engine.instance(instance);
  run.completed = after.state == sim::InstanceState::kFinished;
  run.start_time = after.start_time;
  run.end_time = run.completed ? after.finish_time : engine.now();
  APPCLASS_LOG_DEBUG("monitor.profile", {"node", target_ip},
                     {"completed", run.completed},
                     {"snapshots", run.pool.size()},
                     {"ticks", engine.now() - start_tick});
  return run;
}

}  // namespace appclass::monitor
