#include "core/cost_model.hpp"

namespace appclass::core {

double CostModel::unit_cost(const ClassComposition& composition) const {
  double total = 0.0;
  for (std::size_t c = 0; c < kClassCount; ++c)
    total += costs_.for_class(class_from_index(c)) *
             composition.fractions()[c];
  return total;
}

double CostModel::run_cost(const RunRecord& run) const {
  return unit_cost(run.composition) *
         static_cast<double>(run.elapsed_seconds);
}

}  // namespace appclass::core
