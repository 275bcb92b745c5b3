// Arrival-driven job dispatch (grid front-end).
//
// The paper's experiments place a fixed batch; a real resource manager
// receives a *stream* of jobs and must place each on arrival using only
// live cluster state. This module runs that loop on the simulator: jobs
// arrive at given times, a pluggable policy picks a VM per job (optionally
// consulting the live gmetad view and the job's learned class), and the
// dispatcher records waiting/response times.
#pragma once

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "core/class_label.hpp"
#include "monitor/gmetad.hpp"
#include "sched/advisor.hpp"
#include "sim/engine.hpp"

namespace appclass::sched {

/// One job in the arrival stream.
struct ArrivingJob {
  std::string app;  ///< catalog name
  core::ApplicationClass cls = core::ApplicationClass::kIdle;
  sim::SimTime arrival = 0;
};

/// Per-VM count of running jobs of each class (the dispatcher's own
/// bookkeeping — it knows what it placed even before the monitor shows it).
using ClassCounts = std::array<int, core::kClassCount>;

/// Dispatch-time context handed to a policy.
struct DispatchContext {
  const ArrivingJob& job;
  const std::vector<sim::VmId>& vms;
  const std::vector<std::string>& vm_ips;      ///< parallel to vms
  const std::vector<int>& running_per_vm;      ///< live running-job counts
  const std::vector<ClassCounts>& running_by_class;  ///< per VM, per class
  const std::vector<std::size_t>& host_of;     ///< host index per VM
  const monitor::Gmetad& gmetad;               ///< live cluster view
  std::size_t dispatch_index = 0;              ///< 0-based job counter
};

/// A placement policy: returns the index into ctx.vms to place the job on.
using DispatchPolicy = std::function<std::size_t(const DispatchContext&)>;

/// Round robin over VMs.
DispatchPolicy round_robin_policy();

/// Seeded uniform random VM choice.
DispatchPolicy random_policy(std::uint64_t seed);

/// Least loaded by running-job count (class blind).
DispatchPolicy least_loaded_policy();

/// Class-aware: avoids VMs already running jobs of the same class (the
/// dispatcher's own bookkeeping beats the monitoring lag within a burst),
/// breaking ties by live class-specific headroom (sched::headroom).
DispatchPolicy class_aware_policy();

/// Outcome of one dispatched job.
struct DispatchRecord {
  std::string app;
  core::ApplicationClass cls = core::ApplicationClass::kIdle;
  sim::SimTime arrival = 0;
  std::size_t vm_index = 0;
  sim::SimTime response_seconds = 0;  ///< finish - arrival
};

struct DispatchOutcome {
  std::vector<DispatchRecord> jobs;
  sim::SimTime makespan = 0;  ///< last finish time

  double mean_response() const;
  double max_response() const;
  /// Sum over jobs of 86400/response.
  double throughput_jobs_per_day() const;
};

struct ArrivalExperimentOptions {
  std::size_t vm_count = 4;
  std::uint64_t seed = 42;
  sim::SimTime max_ticks = 3'000'000;
};

/// Runs an arrival stream on a 2-host cluster (VMs alternate hosts; one
/// extra VM serves network peers) under the given policy.
DispatchOutcome run_arrival_experiment(std::vector<ArrivingJob> jobs,
                                       const DispatchPolicy& policy,
                                       const ArrivalExperimentOptions& options
                                       = {});

/// Generates a Poisson-ish arrival stream of `count` jobs drawn uniformly
/// from {specseis_small (cpu), postmark (io), netpipe (network)} with
/// exponential inter-arrival times of the given mean.
std::vector<ArrivingJob> make_mixed_arrivals(std::size_t count,
                                             double mean_interarrival_s,
                                             std::uint64_t seed);

}  // namespace appclass::sched
