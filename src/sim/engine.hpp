// The cluster simulation engine.
//
// Discrete time, one-second ticks. Each tick the engine:
//   1. starts pending instances whose submit time / dependency allows,
//   2. recomputes every VM's memory pressure from hosted working sets,
//   3. collects each running instance's demand, translating application
//      terms (file blocks, net bytes, CPU) into the global capacitated
//      resource table (page-cache absorption, paging traffic, cross-host
//      network flows, server-side CPU cost of a flow's remote endpoint),
//   4. computes a max-min fair allocation (waterfill),
//   5. advances models by their granted fraction (times host CPU speed for
//      CPU-sensitive work, times a paging-latency penalty under memory
//      pressure) and accounts consumption into per-VM metrics,
//   6. emits one 33-metric snapshot per VM to the registered sink.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "metrics/snapshot.hpp"
#include "sim/host.hpp"
#include "sim/resources.hpp"
#include "sim/vm.hpp"
#include "sim/waterfill.hpp"
#include "sim/workload.hpp"

namespace appclass::sim {

using HostId = std::size_t;
using InstanceId = std::size_t;

/// Lifecycle of a submitted application instance.
enum class InstanceState { kPending, kRunning, kFinished };

/// Public view of an instance's progress.
struct InstanceInfo {
  InstanceId id = 0;
  VmId vm = 0;
  std::string app_name;
  InstanceState state = InstanceState::kPending;
  SimTime submit_time = 0;
  SimTime start_time = -1;
  SimTime finish_time = -1;  ///< first tick at which finished() held

  /// Wall-clock run time; only valid once finished.
  SimTime elapsed() const { return finish_time - start_time; }
};

class Engine {
 public:
  /// `seed` drives every stochastic component (instance substreams are
  /// derived from it), making whole simulations reproducible.
  explicit Engine(std::uint64_t seed = 42);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  HostId add_host(const HostSpec& spec);
  VmId add_vm(HostId host, const VmSpec& spec);

  /// Submits an instance to start at `submit_time` (default: immediately).
  InstanceId submit(VmId vm, std::unique_ptr<WorkloadModel> model,
                    SimTime submit_time = 0);

  /// Submits an instance that starts only after `prior` finishes
  /// (sequential-execution experiments).
  InstanceId submit_after(VmId vm, std::unique_ptr<WorkloadModel> model,
                          InstanceId prior);

  /// Sink invoked once per VM per tick with that VM's snapshot.
  using SnapshotSink = std::function<void(VmId, const metrics::Snapshot&)>;
  void set_snapshot_sink(SnapshotSink sink) { sink_ = std::move(sink); }

  /// Migrates a running instance to another VM (process checkpoint and
  /// restart, Condor-style). The instance pauses for a downtime
  /// proportional to its resident working set over a 20 MB/s transfer
  /// (minimum 1 s), during which it consumes nothing and makes
  /// no progress; the checkpoint transfer itself appears as network
  /// traffic on both VMs. No-op if the instance is not running or already
  /// on `to`. Returns the downtime in seconds (0 for the no-op case).
  SimTime migrate(InstanceId id, VmId to);

  /// Advances the simulation by one second.
  void step();

  /// Runs until every submitted instance has finished or `max_ticks`
  /// elapse; returns true when all finished.
  bool run_until_done(SimTime max_ticks = 1'000'000);

  /// Runs exactly `ticks` steps.
  void run_for(SimTime ticks);

  SimTime now() const noexcept { return now_; }
  std::size_t host_count() const noexcept { return hosts_.size(); }
  std::size_t vm_count() const noexcept { return vms_.size(); }
  std::size_t instance_count() const noexcept { return instances_.size(); }
  const Host& host(HostId id) const { return hosts_.at(id); }
  const Vm& vm(VmId id) const { return *vms_.at(id); }
  InstanceInfo instance(InstanceId id) const;

  /// True when no submitted instance is pending or running.
  bool all_done() const;

  const std::vector<Resource>& resources() const noexcept {
    return resources_;
  }

  /// Realized per-resource load of the most recent tick (same indexing as
  /// resources()); empty before the first step. Diagnostic: tests assert
  /// the allocator never oversubscribes a resource.
  const std::vector<double>& last_loads() const noexcept {
    return last_loads_;
  }

 private:
  struct Instance {
    InstanceInfo info;
    std::unique_ptr<WorkloadModel> model;
    std::optional<InstanceId> after;
    linalg::Rng rng;
    SimTime paused_until = -1;  ///< migration downtime end, exclusive

    Instance(InstanceInfo i, std::unique_ptr<WorkloadModel> m,
             std::optional<InstanceId> dep, std::uint64_t seed)
        : info(i), model(std::move(m)), after(dep), rng(seed) {}

    bool paused(SimTime now) const { return now < paused_until; }
  };

  ResourceId add_resource(std::string name, double capacity);
  void start_eligible_instances();

  std::uint64_t seed_;
  SimTime now_ = 0;
  std::vector<Resource> resources_;
  std::vector<Host> hosts_;
  std::vector<std::unique_ptr<Vm>> vms_;
  std::vector<std::unique_ptr<Instance>> instances_;
  std::vector<double> last_loads_;
  SnapshotSink sink_;
};

}  // namespace appclass::sim
