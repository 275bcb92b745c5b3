#include "obs/cardinality.hpp"

namespace appclass::obs {

BoundedLabelSet::BoundedLabelSet(std::size_t max_values, std::string overflow)
    : max_values_(max_values), overflow_(std::move(overflow)) {}

const std::string& BoundedLabelSet::admit(std::string_view value) {
  const std::lock_guard lock(mutex_);
  const auto it = values_.find(value);
  if (it != values_.end()) return *it;
  if (values_.size() < max_values_)
    return *values_.emplace(value).first;
  overflow_seen_.emplace(value);
  return overflow_;
}

std::size_t BoundedLabelSet::size() const {
  const std::lock_guard lock(mutex_);
  return values_.size();
}

std::size_t BoundedLabelSet::overflowed() const {
  const std::lock_guard lock(mutex_);
  return overflow_seen_.size();
}

}  // namespace appclass::obs
