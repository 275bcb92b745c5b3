#include <gtest/gtest.h>

#include "vmplant/plant.hpp"

namespace appclass::vmplant {
namespace {

TEST(ConfigDag, TopologicalOrderRespectsDependencies) {
  ConfigDag dag;
  const auto a = dag.add(ConfigAction{"a", 1.0, 0.0, {}});
  const auto b = dag.add(ConfigAction{"b", 1.0, 0.0, {}});
  const auto c = dag.add(ConfigAction{"c", 1.0, 0.0, {}});
  dag.add_dependency(b, a);  // b before a
  dag.add_dependency(a, c);
  const auto order = dag.topological_order();
  ASSERT_EQ(order.size(), 3u);
  const auto pos = [&](ActionId id) {
    return std::find(order.begin(), order.end(), id) - order.begin();
  };
  EXPECT_LT(pos(b), pos(a));
  EXPECT_LT(pos(a), pos(c));
  EXPECT_TRUE(dag.valid());
}

TEST(ConfigDag, CycleIsInvalid) {
  ConfigDag dag;
  const auto a = dag.add(ConfigAction{"a", 1.0, 0.0, {}});
  const auto b = dag.add(ConfigAction{"b", 1.0, 0.0, {}});
  dag.add_dependency(a, b);
  dag.add_dependency(b, a);
  EXPECT_FALSE(dag.valid());
  EXPECT_TRUE(dag.topological_order().empty());
}

TEST(ConfigDag, EmptyDagIsValid) {
  const ConfigDag dag;
  EXPECT_TRUE(dag.valid());
  EXPECT_DOUBLE_EQ(dag.total_ram_delta_mb(), 0.0);
}

TEST(ConfigDag, RamDeltaAccumulates) {
  ConfigDag dag;
  dag.add(ConfigAction{"grow", 1.0, 256.0, {}});
  dag.add(ConfigAction{"shrink", 1.0, -64.0, {}});
  EXPECT_DOUBLE_EQ(dag.total_ram_delta_mb(), 192.0);
}

TEST(ConfigDag, SequenceKeyIsContentBased) {
  const ConfigDag a = make_app_environment_dag("specseis");
  const ConfigDag b = make_app_environment_dag("specseis");
  const ConfigDag c = make_app_environment_dag("postmark");
  EXPECT_EQ(a.prefix_key(a.size()), b.prefix_key(b.size()));
  EXPECT_NE(a.prefix_key(a.size()), c.prefix_key(c.size()));
}

TEST(ConfigDag, PrefixKeysDifferByLength) {
  const ConfigDag dag = make_app_environment_dag("specseis");
  EXPECT_NE(dag.prefix_key(1), dag.prefix_key(2));
}

TEST(VmPlant, ProvisionAppliesRamDelta) {
  VmPlant plant;
  plant.register_image(make_standard_image());
  CloneRequest req;
  req.image = "worker-256mb";
  req.config = make_app_environment_dag("specseis", /*extra_ram_mb=*/256.0);
  req.vm_name = "vm-seis";
  req.vm_ip = "10.0.0.50";
  const CloneResult result = plant.provision(req);
  EXPECT_DOUBLE_EQ(result.spec.ram_mb, 512.0);
  EXPECT_EQ(result.spec.name, "vm-seis");
  EXPECT_FALSE(result.from_cache);
  // base 90 + mount 4 + install 25 + input 2 + set-memory 1.
  EXPECT_DOUBLE_EQ(result.provision_s, 122.0);
}

TEST(VmPlant, SecondCloneHitsCache) {
  VmPlant plant;
  plant.register_image(make_standard_image());
  CloneRequest req;
  req.image = "worker-256mb";
  req.config = make_app_environment_dag("postmark");
  req.vm_name = "vm-a";
  req.vm_ip = "10.0.0.51";
  const CloneResult first = plant.provision(req);
  req.vm_name = "vm-b";
  const CloneResult second = plant.provision(req);
  EXPECT_FALSE(first.from_cache);
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.cached_actions, req.config.size());
  EXPECT_LT(second.provision_s, first.provision_s);
  // Fully cached: only the base clone remains.
  EXPECT_DOUBLE_EQ(second.provision_s, 90.0);
}

TEST(VmPlant, SharedPrefixPartiallyCached) {
  VmPlant plant;
  plant.register_image(make_standard_image());
  CloneRequest seis;
  seis.image = "worker-256mb";
  seis.config = make_app_environment_dag("specseis");
  seis.vm_name = "a";
  seis.vm_ip = "10.0.0.52";
  plant.provision(seis);

  // A different app shares only the "mount:/scratch" first action.
  CloneRequest pm;
  pm.image = "worker-256mb";
  pm.config = make_app_environment_dag("postmark");
  pm.vm_name = "b";
  pm.vm_ip = "10.0.0.53";
  const CloneResult result = plant.provision(pm);
  EXPECT_TRUE(result.from_cache);
  EXPECT_EQ(result.cached_actions, 1u);  // the mount step
  EXPECT_DOUBLE_EQ(result.provision_s, 90.0 + 25.0 + 2.0);
}

TEST(VmPlant, InstantiateRegistersVmWithEngine) {
  VmPlant plant;
  plant.register_image(make_standard_image());
  sim::Engine engine(1);
  const auto host = engine.add_host(sim::make_host_a_spec());
  CloneRequest req;
  req.image = "worker-256mb";
  req.config = make_app_environment_dag("ch3d");
  req.vm_name = "vm-ch3d";
  req.vm_ip = "10.0.0.60";
  const auto [vm, result] = plant.instantiate(engine, host, req);
  EXPECT_EQ(engine.vm_count(), 1u);
  EXPECT_EQ(engine.vm(vm).spec().ip, "10.0.0.60");
  EXPECT_GT(result.provision_s, 90.0);
}

TEST(VmPlant, ImageRegistry) {
  VmPlant plant;
  EXPECT_EQ(plant.image_count(), 0u);
  plant.register_image(make_standard_image());
  EXPECT_EQ(plant.image_count(), 1u);
}

}  // namespace
}  // namespace appclass::vmplant
