#include "vmplant/plant.hpp"

#include "sim/testbed.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace appclass::vmplant {

void VmPlant::register_image(GoldenImage image) {
  APPCLASS_EXPECTS(!image.name.empty());
  APPCLASS_EXPECTS(!images_.contains(image.name));
  images_.emplace(image.name, std::move(image));
}

CloneResult VmPlant::provision(const CloneRequest& request) {
  const auto image_it = images_.find(request.image);
  APPCLASS_EXPECTS(image_it != images_.end());
  APPCLASS_EXPECTS(request.config.valid());

  const GoldenImage& image = image_it->second;
  const auto order = request.config.topological_order();

  // Find the longest configuration prefix we've provisioned before.
  std::size_t cached_len = 0;
  for (std::size_t len = order.size(); len > 0; --len) {
    const auto key = std::make_pair(request.image,
                                    request.config.prefix_key(len));
    const auto it = cache_.find(key);
    if (it != cache_.end() && it->second == len) {
      cached_len = len;
      break;
    }
  }

  CloneResult result;
  result.spec = image.base_spec;
  result.spec.name = request.vm_name;
  result.spec.ip = request.vm_ip;
  result.from_cache = cached_len > 0;
  result.cached_actions = cached_len;
  result.provision_s = image.base_clone_s;
  for (std::size_t i = cached_len; i < order.size(); ++i)
    result.provision_s += request.config.action(order[i]).duration_s;
  result.spec.ram_mb += request.config.total_ram_delta_mb();
  APPCLASS_ENSURES(result.spec.ram_mb > 0.0);

  // Remember every prefix of this configuration for future requests.
  for (std::size_t len = 1; len <= order.size(); ++len)
    cache_[{request.image, request.config.prefix_key(len)}] = len;
  return result;
}

std::pair<sim::VmId, CloneResult> VmPlant::instantiate(
    sim::Engine& engine, sim::HostId host, const CloneRequest& request) {
  CloneResult result = provision(request);
  const sim::VmId vm = engine.add_vm(host, result.spec);
  return {vm, std::move(result)};
}

GoldenImage make_standard_image(const std::string& name) {
  GoldenImage image;
  image.name = name;
  image.base_spec = sim::make_vm_spec("template", "0.0.0.0", 256.0);
  image.base_clone_s = 90.0;  // copying a multi-GB disk image
  return image;
}

ConfigDag make_app_environment_dag(const std::string& app_package,
                                   double extra_ram_mb) {
  ConfigDag dag;
  const ActionId mount =
      dag.add(ConfigAction{"mount:/scratch", 4.0, 0.0, {}});
  const ActionId install = dag.add(ConfigAction{
      "install:" + app_package, 25.0, 0.0, {{"package", app_package}}});
  const ActionId input = dag.add(ConfigAction{
      "write-input:" + app_package, 2.0, 0.0, {{"deck", "default"}}});
  if (extra_ram_mb != 0.0)
    dag.add(ConfigAction{"set-memory", 1.0, extra_ram_mb, {}});
  dag.add_dependency(mount, install);
  dag.add_dependency(install, input);
  return dag;
}

}  // namespace appclass::vmplant
