#include "vmplant/dag.hpp"

#include <algorithm>
#include <queue>

#include "common/assert.hpp"
#include "linalg/random.hpp"

namespace appclass::vmplant {

ActionId ConfigDag::add(ConfigAction action) {
  APPCLASS_EXPECTS(!action.name.empty());
  APPCLASS_EXPECTS(action.duration_s >= 0.0);
  actions_.push_back(std::move(action));
  return actions_.size() - 1;
}

void ConfigDag::add_dependency(ActionId before, ActionId after) {
  APPCLASS_EXPECTS(before < actions_.size());
  APPCLASS_EXPECTS(after < actions_.size());
  APPCLASS_EXPECTS(before != after);
  edges_.emplace_back(before, after);
}

const ConfigAction& ConfigDag::action(ActionId id) const {
  APPCLASS_EXPECTS(id < actions_.size());
  return actions_[id];
}

std::vector<ActionId> ConfigDag::topological_order() const {
  const std::size_t n = actions_.size();
  std::vector<std::vector<ActionId>> out_edges(n);
  std::vector<std::size_t> in_degree(n, 0);
  for (const auto& [before, after] : edges_) {
    out_edges[before].push_back(after);
    ++in_degree[after];
  }
  // Min-heap on id for a deterministic order.
  std::priority_queue<ActionId, std::vector<ActionId>, std::greater<>> ready;
  for (ActionId i = 0; i < n; ++i)
    if (in_degree[i] == 0) ready.push(i);
  std::vector<ActionId> order;
  order.reserve(n);
  while (!ready.empty()) {
    const ActionId id = ready.top();
    ready.pop();
    order.push_back(id);
    for (const ActionId next : out_edges[id])
      if (--in_degree[next] == 0) ready.push(next);
  }
  if (order.size() != n) return {};  // cycle
  return order;
}

bool ConfigDag::valid() const {
  return actions_.empty() || !topological_order().empty();
}

double ConfigDag::total_ram_delta_mb() const {
  double total = 0.0;
  for (const auto& a : actions_) total += a.ram_delta_mb;
  return total;
}

std::uint64_t ConfigDag::prefix_key(std::size_t prefix_len) const {
  const auto order = topological_order();
  APPCLASS_EXPECTS(prefix_len <= order.size());
  std::uint64_t key = 0x243f6a8885a308d3ULL;
  for (std::size_t i = 0; i < prefix_len; ++i) {
    const ConfigAction& a = actions_[order[i]];
    for (const char c : a.name)
      key = linalg::derive_seed(key, static_cast<std::uint64_t>(c));
    for (const auto& [k, v] : a.params) {
      for (const char c : k)
        key = linalg::derive_seed(key, static_cast<std::uint64_t>(c) ^ 0x55);
      for (const char c : v)
        key = linalg::derive_seed(key, static_cast<std::uint64_t>(c) ^ 0xAA);
    }
  }
  return key;
}

}  // namespace appclass::vmplant
