#include "sched/advisor.hpp"

#include <algorithm>

namespace appclass::sched {
namespace {

// Nominal per-VM capacities (the simulated GSX guests' virtual devices).
constexpr double kVdiskBlocksPerS = 11000.0;
constexpr double kVnicBytesPerS = 72.0e6;

}  // namespace

double headroom(core::ApplicationClass cls, const metrics::Snapshot& s) {
  using metrics::MetricId;
  const auto clamp01 = [](double x) { return std::clamp(x, 0.0, 1.0); };
  switch (cls) {
    case core::ApplicationClass::kCpu:
      return clamp01(s.get(MetricId::kCpuIdle) / 100.0);
    case core::ApplicationClass::kIo: {
      const double used =
          (s.get(MetricId::kIoBi) + s.get(MetricId::kIoBo)) /
          kVdiskBlocksPerS;
      return clamp01(1.0 - used);
    }
    case core::ApplicationClass::kNetwork: {
      const double used =
          (s.get(MetricId::kBytesIn) + s.get(MetricId::kBytesOut)) /
          kVnicBytesPerS;
      return clamp01(1.0 - used);
    }
    case core::ApplicationClass::kMemory: {
      const double total = std::max(s.get(MetricId::kMemTotal), 1.0);
      // Page cache is reclaimable: it counts as available memory.
      const double available =
          s.get(MetricId::kMemFree) + s.get(MetricId::kMemCached);
      return clamp01(available / total);
    }
    case core::ApplicationClass::kIdle:
      return 1.0;  // an idle job is happy anywhere
  }
  return 0.0;
}

}  // namespace appclass::sched
