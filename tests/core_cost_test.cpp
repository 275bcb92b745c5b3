#include "core/cost_model.hpp"

#include <gtest/gtest.h>

namespace appclass::core {
namespace {

ClassComposition composition_of(std::initializer_list<ApplicationClass> v) {
  const std::vector<ApplicationClass> classes(v);
  return ClassComposition(classes);
}

TEST(CostModel, UnitCostIsWeightedAverage) {
  // UnitApplicationCost = a*cpu% + b*mem% + g*io% + d*net% + e*idle%.
  UnitCosts costs;
  costs.cpu = 4.0;
  costs.io = 2.0;
  costs.idle = 0.0;
  const CostModel model(costs);
  const auto comp = composition_of({ApplicationClass::kCpu,
                                    ApplicationClass::kCpu,
                                    ApplicationClass::kIo,
                                    ApplicationClass::kIdle});
  EXPECT_DOUBLE_EQ(model.unit_cost(comp), 4.0 * 0.5 + 2.0 * 0.25);
}

TEST(CostModel, PureClassCostsEqualUnitPrice) {
  UnitCosts costs;
  costs.cpu = 3.0;
  costs.memory = 5.0;
  costs.io = 7.0;
  costs.network = 11.0;
  costs.idle = 0.5;
  const CostModel model(costs);
  EXPECT_DOUBLE_EQ(model.unit_cost(composition_of({ApplicationClass::kCpu})),
                   3.0);
  EXPECT_DOUBLE_EQ(
      model.unit_cost(composition_of({ApplicationClass::kMemory})), 5.0);
  EXPECT_DOUBLE_EQ(model.unit_cost(composition_of({ApplicationClass::kIo})),
                   7.0);
  EXPECT_DOUBLE_EQ(
      model.unit_cost(composition_of({ApplicationClass::kNetwork})), 11.0);
  EXPECT_DOUBLE_EQ(model.unit_cost(composition_of({ApplicationClass::kIdle})),
                   0.5);
}

TEST(CostModel, IdleTimeCanBeFree) {
  const CostModel model(UnitCosts{});  // default idle price is 0
  EXPECT_DOUBLE_EQ(model.unit_cost(composition_of({ApplicationClass::kIdle})),
                   0.0);
}

TEST(CostModel, RunCostScalesWithElapsedTime) {
  const CostModel model(UnitCosts{.cpu = 2.0});
  RunRecord run;
  run.application = "ch3d";
  run.composition = composition_of({ApplicationClass::kCpu});
  run.application_class = ApplicationClass::kCpu;
  run.elapsed_seconds = 488;
  EXPECT_DOUBLE_EQ(model.run_cost(run), 2.0 * 488.0);
}

TEST(CostModel, ProviderPricingDifferentiatesApps) {
  // An I/O-heavy provider charges more for disk time; the same two runs
  // price differently under different schemes.
  const auto io_comp = composition_of({ApplicationClass::kIo});
  const auto cpu_comp = composition_of({ApplicationClass::kCpu});
  const CostModel disk_pricey(UnitCosts{.cpu = 1.0, .io = 10.0});
  const CostModel cpu_pricey(UnitCosts{.cpu = 10.0, .io = 1.0});
  EXPECT_GT(disk_pricey.unit_cost(io_comp), disk_pricey.unit_cost(cpu_comp));
  EXPECT_LT(cpu_pricey.unit_cost(io_comp), cpu_pricey.unit_cost(cpu_comp));
}

}  // namespace
}  // namespace appclass::core
