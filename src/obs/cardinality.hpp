// Bounded label-cardinality guard for registry metrics.
//
// Prometheus-style labels make it easy to explode the registry: a metric
// labelled by node IP, request path, or any other externally-controlled
// value grows one time series per distinct value, forever. Every label
// whose value set is not statically fixed must go through a
// BoundedLabelSet: the first `max_values` distinct values keep their own
// series, everything after collapses into one shared overflow bucket
// ("other"). Admission is first-come-first-kept, which is deterministic
// for a deterministic stream and cheap to reason about; the overflow
// bucket still counts every event, so totals stay exact even when
// per-value attribution saturates.
#pragma once

#include <mutex>
#include <set>
#include <string>
#include <string_view>

namespace appclass::obs {

class BoundedLabelSet {
 public:
  explicit BoundedLabelSet(std::size_t max_values,
                           std::string overflow = "other");

  /// Returns `value` itself while it is already admitted or room remains,
  /// otherwise the overflow bucket. The returned reference stays valid
  /// for the set's lifetime. Thread-safe.
  const std::string& admit(std::string_view value);

  /// Distinct values admitted so far (excluding the overflow bucket).
  std::size_t size() const;

  /// Distinct values that were collapsed into the overflow bucket.
  std::size_t overflowed() const;

  std::size_t max_values() const noexcept { return max_values_; }
  const std::string& overflow_label() const noexcept { return overflow_; }

 private:
  const std::size_t max_values_;
  const std::string overflow_;
  mutable std::mutex mutex_;
  std::set<std::string, std::less<>> values_;
  std::set<std::string, std::less<>> overflow_seen_;
};

}  // namespace appclass::obs
