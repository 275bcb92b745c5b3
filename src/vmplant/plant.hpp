// The VMPlant service (paper section 2): automated creation and flexible
// configuration of application-specific virtual machines.
//
// A plant owns a catalog of golden images and a cache of partially
// configured clones. A clone request names an image and a configuration
// DAG; provisioning cost is the image's base clone time plus the duration
// of every action *not* already covered by the longest cached
// configuration prefix — VMPlant's incremental-caching behaviour. The
// resulting VM can be instantiated directly into a simulation engine.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "sim/engine.hpp"
#include "vmplant/dag.hpp"

namespace appclass::vmplant {

/// A golden VM image clones start from.
struct GoldenImage {
  std::string name;
  sim::VmSpec base_spec;       ///< template VM configuration
  double base_clone_s = 60.0;  ///< time to clone the raw image
};

/// A clone request: image + configuration DAG + identity.
struct CloneRequest {
  std::string image;
  ConfigDag config;
  std::string vm_name;
  std::string vm_ip;
};

/// Result of provisioning one VM.
struct CloneResult {
  sim::VmSpec spec;            ///< fully configured VM spec
  double provision_s = 0.0;    ///< simulated provisioning time
  std::size_t cached_actions = 0;  ///< actions skipped via the clone cache
  bool from_cache = false;     ///< true if any cached prefix was reused
};

class VmPlant {
 public:
  /// Registers a golden image; names must be unique.
  void register_image(GoldenImage image);

  std::size_t image_count() const noexcept { return images_.size(); }

  /// Provisions a VM: applies the request's DAG to the image, reusing the
  /// longest previously provisioned configuration prefix. The DAG must be
  /// valid (acyclic); the image must exist.
  CloneResult provision(const CloneRequest& request);

  /// Provisions and registers the VM with an engine on `host`.
  /// Returns the VmId together with the provisioning record.
  std::pair<sim::VmId, CloneResult> instantiate(sim::Engine& engine,
                                                sim::HostId host,
                                                const CloneRequest& request);

  /// Number of cached configuration prefixes.
  std::size_t cache_size() const noexcept { return cache_.size(); }

 private:
  std::map<std::string, GoldenImage> images_;
  /// (image, prefix key) -> prefix length already provisioned once.
  std::map<std::pair<std::string, std::uint64_t>, std::size_t> cache_;
};

/// The paper's standard worker-VM image (256 MB, GSX-style uniprocessor).
GoldenImage make_standard_image(const std::string& name = "worker-256mb");

/// A typical application environment DAG: mount scratch space, install the
/// application package, write its input deck, and set VM memory.
ConfigDag make_app_environment_dag(const std::string& app_package,
                                   double extra_ram_mb = 0.0);

}  // namespace appclass::vmplant
