// VM configuration DAGs (paper section 2).
//
// VMPlant defines application-specific VM execution environments as a
// directed acyclic graph of configuration actions (install package, mount
// volume, write config, resize memory, ...). A DAG is validated, ordered
// topologically, and costed; the plant (plant.hpp) then applies it to a
// golden image, caching partially-configured clones so that requests
// sharing a configuration prefix provision quickly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace appclass::vmplant {

using ActionId = std::size_t;

/// One configuration step.
struct ConfigAction {
  std::string name;          ///< e.g. "install:lam-mpi", "mount:/scratch"
  double duration_s = 1.0;   ///< time to apply during provisioning
  double ram_delta_mb = 0.0; ///< change to the VM's memory configuration
  std::map<std::string, std::string> params;
};

/// A DAG of configuration actions with explicit dependencies.
class ConfigDag {
 public:
  /// Adds an action; returns its id.
  ActionId add(ConfigAction action);

  /// Declares that `before` must be applied before `after`.
  /// Both ids must exist; self-edges are rejected.
  void add_dependency(ActionId before, ActionId after);

  std::size_t size() const noexcept { return actions_.size(); }
  const ConfigAction& action(ActionId id) const;

  /// True when the dependency graph has no cycle.
  bool valid() const;

  /// Deterministic topological order (Kahn's algorithm; ties broken by
  /// insertion id). Empty when the graph is cyclic or empty.
  std::vector<ActionId> topological_order() const;

  /// Net memory configuration change of the whole DAG.
  double total_ram_delta_mb() const;

  /// Stable content key of the first `prefix_len` actions in topological
  /// order; two DAGs with the same full-length key provision identically
  /// (the clone cache matches on prefixes).
  std::uint64_t prefix_key(std::size_t prefix_len) const;

 private:
  std::vector<ConfigAction> actions_;
  std::vector<std::pair<ActionId, ActionId>> edges_;
};

}  // namespace appclass::vmplant
