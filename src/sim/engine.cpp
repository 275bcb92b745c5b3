#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>

namespace appclass::sim {

namespace {

// Server-side CPU cost of terminating a network flow: one reference core
// per 100 MB/s of traffic (the classic ~1 GHz per Gb/s TCP rule of thumb,
// inflated by GSX's software NIC emulation).
constexpr double kServerCpuPerByte = 1.0 / 100.0e6;

// CPU overhead of paging activity: cores per KB/s of swap traffic.
constexpr double kPagingCpuPerKb = 2e-5;

// Relative speed of disk-bound file I/O versus page-cache-hit I/O.
constexpr double kDiskSpeedFactor = 0.25;

// Checkpoint transfer bandwidth used by migrate(), bytes/second.
constexpr double kMigrationBytesPerS = 20.0e6;

}  // namespace

Engine::Engine(std::uint64_t seed) : seed_(seed) {}

ResourceId Engine::add_resource(std::string name, double capacity) {
  resources_.push_back(Resource{std::move(name), capacity});
  return resources_.size() - 1;
}

HostId Engine::add_host(const HostSpec& spec) {
  Host h;
  h.spec = spec;
  const double ref_cores = static_cast<double>(spec.cores) * spec.cpu_speed;
  h.cpu = add_resource(spec.name + ".cpu", ref_cores);
  h.disk = add_resource(spec.name + ".disk", spec.disk_blocks_per_s);
  h.net_in = add_resource(spec.name + ".net_in", spec.net_bytes_per_s);
  h.net_out = add_resource(spec.name + ".net_out", spec.net_bytes_per_s);
  h.vswitch = add_resource(spec.name + ".vswitch", spec.vswitch_bytes_per_s);
  hosts_.push_back(std::move(h));
  return hosts_.size() - 1;
}

VmId Engine::add_vm(HostId host, const VmSpec& spec) {
  APPCLASS_EXPECTS(host < hosts_.size());
  const Host& h = hosts_[host];
  Vm::ResourceSlots slots;
  slots.vcpu = add_resource(
      spec.name + ".vcpu",
      static_cast<double>(spec.vcpus) * h.spec.cpu_speed);
  slots.vdisk = add_resource(spec.name + ".vdisk", spec.vdisk_blocks_per_s);
  slots.vnic_in = add_resource(spec.name + ".vnic_in", spec.vnic_bytes_per_s);
  slots.vnic_out =
      add_resource(spec.name + ".vnic_out", spec.vnic_bytes_per_s);
  vms_.push_back(std::make_unique<Vm>(
      spec, host, slots, h.spec.cpu_speed, h.spec.cpu_mhz,
      linalg::derive_seed(seed_, 0x1000 + vms_.size())));
  return vms_.size() - 1;
}

InstanceId Engine::submit(VmId vm, std::unique_ptr<WorkloadModel> model,
                          SimTime submit_time) {
  APPCLASS_EXPECTS(vm < vms_.size());
  APPCLASS_EXPECTS(model != nullptr);
  InstanceInfo info;
  info.id = instances_.size();
  info.vm = vm;
  info.app_name = std::string(model->name());
  info.submit_time = std::max(submit_time, now_);
  instances_.push_back(std::make_unique<Instance>(
      info, std::move(model), std::nullopt,
      linalg::derive_seed(seed_, 0x2000 + info.id)));
  return info.id;
}

InstanceId Engine::submit_after(VmId vm, std::unique_ptr<WorkloadModel> model,
                                InstanceId prior) {
  APPCLASS_EXPECTS(prior < instances_.size());
  const InstanceId id = submit(vm, std::move(model));
  instances_[id]->after = prior;
  return id;
}

InstanceInfo Engine::instance(InstanceId id) const {
  APPCLASS_EXPECTS(id < instances_.size());
  return instances_[id]->info;
}

SimTime Engine::migrate(InstanceId id, VmId to) {
  APPCLASS_EXPECTS(id < instances_.size());
  APPCLASS_EXPECTS(to < vms_.size());
  Instance& inst = *instances_[id];
  if (inst.info.state != InstanceState::kRunning || inst.info.vm == to)
    return 0;

  const VmId from = inst.info.vm;
  const MemoryProfile mem = inst.model->memory();
  const double checkpoint_bytes =
      std::max(1.0, mem.working_set_mb) * 1024.0 * 1024.0;
  const auto downtime = static_cast<SimTime>(
      std::max(1.0, std::ceil(checkpoint_bytes / kMigrationBytesPerS)));

  // The checkpoint stream shows up as network traffic on both endpoints,
  // amortized over one tick's announcement (coarse but visible to the
  // monitor, as Condor-style checkpoint transfers are).
  const double rate = checkpoint_bytes / static_cast<double>(downtime);
  vms_[from]->tick_account().bytes_out += rate;
  vms_[to]->tick_account().bytes_in += rate;

  inst.info.vm = to;
  inst.paused_until = now_ + downtime;
  return downtime;
}

bool Engine::all_done() const {
  return std::all_of(instances_.begin(), instances_.end(), [](const auto& i) {
    return i->info.state == InstanceState::kFinished;
  });
}

void Engine::start_eligible_instances() {
  for (auto& inst : instances_) {
    if (inst->info.state != InstanceState::kPending) continue;
    if (inst->info.submit_time > now_) continue;
    if (inst->after &&
        instances_[*inst->after]->info.state != InstanceState::kFinished)
      continue;
    inst->info.state = InstanceState::kRunning;
    inst->info.start_time = now_;
  }
}

void Engine::step() {
  start_eligible_instances();

  // --- per-VM memory pressure from hosted working sets ---
  std::vector<double> resident(vms_.size(), 0.0);
  std::vector<double> access_weight(vms_.size(), 0.0);
  for (auto& inst : instances_) {
    if (inst->info.state != InstanceState::kRunning || inst->paused(now_))
      continue;
    const MemoryProfile mem = inst->model->memory();
    resident[inst->info.vm] += mem.working_set_mb;
    access_weight[inst->info.vm] += mem.working_set_mb * mem.access_intensity;
  }
  for (std::size_t v = 0; v < vms_.size(); ++v)
    vms_[v]->update_memory_pressure(resident[v], access_weight[v]);

  // --- collect demands ---
  struct TickInstance {
    Instance* inst = nullptr;
    AppDemand app;
    MemoryProfile mem;
    double paging_kb = 0.0;      // nominal swap traffic, KB/s
    double paging_cpu = 0.0;     // CPU overhead of paging, cores
    double read_blocks = 0.0;    // post-cache disk reads
    double write_blocks = 0.0;   // post-cache disk writes
    double cpu_cores = 0.0;      // translated CPU demand (reference cores)
  };
  std::vector<TickInstance> ticks;
  std::vector<Demand> demands;

  for (auto& inst : instances_) {
    if (inst->info.state != InstanceState::kRunning || inst->paused(now_))
      continue;
    TickInstance t;
    t.inst = inst.get();
    t.app = inst->model->demand(now_, inst->rng);
    t.mem = inst->model->memory();

    Vm& vm = *vms_[inst->info.vm];
    const Host& host = hosts_[vm.host_index()];

    t.read_blocks = t.app.disk_read_blocks * (1.0 - vm.read_absorption(t.mem));
    t.write_blocks =
        t.app.disk_write_blocks * (1.0 - vm.write_absorption(t.mem));
    t.paging_kb = vm.paging_kb_per_s(t.mem);
    if (t.paging_kb > 0.0) {
      // Page faults cluster: the swap stream is bursty tick to tick.
      // Mean-one lognormal (mu = -sigma^2/2) keeps the average traffic at
      // the pressure model's value.
      constexpr double kPagingBurstSigma = 0.15;
      t.paging_kb *= inst->rng.lognormal(
          -0.5 * kPagingBurstSigma * kPagingBurstSigma, kPagingBurstSigma);
    }
    t.paging_cpu = kPagingCpuPerKb * t.paging_kb;
    // A single-threaded app saturates one *physical* core of its host, so
    // its demand in reference-core units scales with host speed.
    t.cpu_cores = t.app.cpu * host.spec.cpu_speed + t.paging_cpu;

    Demand d;
    if (t.cpu_cores > 0.0) {
      d.add(host.cpu, t.cpu_cores);
      d.add(vm.vcpu_resource(), t.cpu_cores);
    }
    const double disk_blocks =
        t.read_blocks + t.write_blocks + t.paging_kb;  // 1 KB blocks
    if (disk_blocks > 0.0) {
      d.add(host.disk, disk_blocks);
      d.add(vm.vdisk_resource(), disk_blocks);
    }

    const double net_total = t.app.net_in_bytes + t.app.net_out_bytes;
    if (net_total > 0.0) {
      if (t.app.net_peer_vm >= 0) {
        const auto peer_vm_id = static_cast<VmId>(t.app.net_peer_vm);
        APPCLASS_EXPECTS(peer_vm_id < vms_.size());
        const Vm& peer = *vms_[peer_vm_id];
        const Host& peer_host = hosts_[peer.host_index()];
        // Both endpoints' virtual NICs carry the flow either way.
        d.add(vm.vnic_out_resource(), t.app.net_out_bytes);
        d.add(vm.vnic_in_resource(), t.app.net_in_bytes);
        d.add(peer.vnic_in_resource(), t.app.net_out_bytes);
        d.add(peer.vnic_out_resource(), t.app.net_in_bytes);
        if (peer.host_index() == vm.host_index()) {
          // Intra-host VM-to-VM traffic rides the virtual switch only.
          d.add(host.vswitch, net_total);
        } else {
          d.add(host.net_out, t.app.net_out_bytes);
          d.add(host.net_in, t.app.net_in_bytes);
          d.add(peer_host.net_in, t.app.net_out_bytes);
          d.add(peer_host.net_out, t.app.net_in_bytes);
        }
        // The remote endpoint burns CPU terminating the flow; couple it
        // into the same demand vector so a CPU-starved server throttles
        // the flow, as it would in reality.
        const double server_cpu = kServerCpuPerByte * net_total;
        if (server_cpu > 0.0) {
          d.add(peer_host.cpu, server_cpu);
          d.add(peer.vcpu_resource(), server_cpu);
        }
      } else {
        // External traffic crosses the vNIC and this host's NIC.
        d.add(vm.vnic_out_resource(), t.app.net_out_bytes);
        d.add(vm.vnic_in_resource(), t.app.net_in_bytes);
        d.add(host.net_out, t.app.net_out_bytes);
        d.add(host.net_in, t.app.net_in_bytes);
      }
    }

    ticks.push_back(std::move(t));
    demands.push_back(std::move(d));
  }

  // --- allocate ---
  const std::vector<double> caps = [&] {
    std::vector<double> c(resources_.size());
    for (std::size_t r = 0; r < resources_.size(); ++r)
      c[r] = resources_[r].capacity;
    return c;
  }();
  const std::vector<double> f = waterfill(caps, demands);
  const std::vector<double> loads =
      resource_loads(resources_.size(), demands, f);
  last_loads_ = loads;
  std::vector<bool> saturated(resources_.size(), false);
  for (std::size_t r = 0; r < resources_.size(); ++r)
    saturated[r] = !std::isinf(caps[r]) && loads[r] >= 0.999 * caps[r] &&
                   loads[r] > 0.0;

  // --- account + advance ---
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    TickInstance& t = ticks[i];
    Instance& inst = *t.inst;
    Vm& vm = *vms_[inst.info.vm];
    const Host& host = hosts_[vm.host_index()];
    const double fi = f[i];

    VmTickAccount& acct = vm.tick_account();
    const double granted_cpu = fi * t.cpu_cores;
    acct.cpu_user_cores += granted_cpu * t.app.cpu_user_fraction;
    acct.cpu_system_cores += granted_cpu * (1.0 - t.app.cpu_user_fraction);
    acct.bytes_in += fi * t.app.net_in_bytes;
    acct.bytes_out += fi * t.app.net_out_bytes;
    acct.io_read_blocks += fi * t.read_blocks;
    acct.io_write_blocks += fi * t.write_blocks;
    acct.swap_in_kb += fi * t.paging_kb * 0.5;
    acct.swap_out_kb += fi * t.paging_kb * 0.5;
    acct.resident_mb += t.mem.working_set_mb;
    if (t.cpu_cores > 0.01) ++acct.runnable;

    // CPU forfeited while blocked on a saturated disk shows up as I/O wait.
    if (fi < 0.999 && (t.read_blocks + t.write_blocks + t.paging_kb) > 0.0 &&
        saturated[host.disk])
      acct.cpu_wio_cores += (1.0 - fi) * t.cpu_cores;

    // Mirror the flow at the remote endpoint's VM accounting.
    if (t.app.net_peer_vm >= 0) {
      Vm& peer = *vms_[static_cast<VmId>(t.app.net_peer_vm)];
      VmTickAccount& pacct = peer.tick_account();
      pacct.bytes_in += fi * t.app.net_out_bytes;
      pacct.bytes_out += fi * t.app.net_in_bytes;
      const double server_cpu =
          fi * kServerCpuPerByte * (t.app.net_in_bytes + t.app.net_out_bytes);
      pacct.cpu_system_cores += server_cpu;
      if (server_cpu > 0.01) ++pacct.runnable;
    }

    Grant grant;
    grant.fraction = fi;
    grant.cpu_speed = host.spec.cpu_speed;
    grant.paging_penalty = Vm::paging_penalty(fi * t.paging_kb);
    const double file_blocks =
        t.app.disk_read_blocks + t.app.disk_write_blocks;
    if (file_blocks > 0.0) {
      // Blend read/write cache absorption by traffic share; misses run at
      // disk speed, hits at memory speed.
      const double absorbed =
          (t.app.disk_read_blocks * vm.read_absorption(t.mem) +
           t.app.disk_write_blocks * vm.write_absorption(t.mem)) /
          file_blocks;
      grant.io_penalty = absorbed + (1.0 - absorbed) * kDiskSpeedFactor;
    }
    inst.model->advance(grant, now_, inst.rng);

    if (inst.model->finished()) {
      inst.info.state = InstanceState::kFinished;
      inst.info.finish_time = now_ + 1;
    }
  }

  // --- emit snapshots ---
  for (std::size_t v = 0; v < vms_.size(); ++v) {
    metrics::Snapshot s = vms_[v]->finalize_tick(now_);
    if (sink_) sink_(v, s);
  }

  ++now_;
}

bool Engine::run_until_done(SimTime max_ticks) {
  const SimTime deadline = now_ + max_ticks;
  while (!all_done() && now_ < deadline) step();
  return all_done();
}

void Engine::run_for(SimTime ticks) {
  for (SimTime i = 0; i < ticks; ++i) step();
}

}  // namespace appclass::sim
