// Cost-based scheduling model (paper section 4.4).
//
//   UnitApplicationCost = α·cpu% + β·mem% + γ·io% + δ·net% + ε·idle%
//
// where α..ε are per-resource unit prices set by the resource provider and
// the percentages are the application's class composition. The total price
// of a run is the unit cost times its execution time.
#pragma once

#include <array>

#include "core/appdb.hpp"
#include "core/composition.hpp"

namespace appclass::core {

/// Per-resource unit prices (cost per second of execution attributed to
/// each behaviour class).
struct UnitCosts {
  double cpu = 1.0;      // α
  double memory = 1.0;   // β
  double io = 1.0;       // γ
  double network = 1.0;  // δ
  double idle = 0.0;     // ε

  double for_class(ApplicationClass c) const noexcept {
    switch (c) {
      case ApplicationClass::kCpu: return cpu;
      case ApplicationClass::kMemory: return memory;
      case ApplicationClass::kIo: return io;
      case ApplicationClass::kNetwork: return network;
      case ApplicationClass::kIdle: return idle;
    }
    return 0.0;
  }
};

class CostModel {
 public:
  explicit CostModel(UnitCosts costs = {}) : costs_(costs) {}

  const UnitCosts& costs() const noexcept { return costs_; }

  /// The paper's UnitApplicationCost: price per second of execution for an
  /// application with the given class composition.
  double unit_cost(const ClassComposition& composition) const;

  /// Total price of one recorded run (unit cost x elapsed time).
  double run_cost(const RunRecord& run) const;

 private:
  UnitCosts costs_;
};

}  // namespace appclass::core
