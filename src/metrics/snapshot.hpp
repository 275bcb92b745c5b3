// Performance snapshots and the per-run data pool A(n x m).
//
// A `Snapshot` is one observation of all 33 metrics on one node at one
// instant; a `DataPool` is the ordered collection of snapshots the profiler
// assembles for one application run between t0 and t1 (the paper's
// A(n x m) with one metric per row and one snapshot per column).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "metrics/schema.hpp"

namespace appclass::metrics {

/// Simulated-time type: seconds since simulation start.
using SimTime = std::int64_t;

/// One observation of all 33 metrics on one node.
struct Snapshot {
  SimTime time = 0;          ///< sampling time, seconds
  std::string node_ip;       ///< IP of the monitored node (VM)
  std::array<double, kMetricCount> values{};

  double get(MetricId id) const noexcept { return values[index_of(id)]; }
  void set(MetricId id, double v) noexcept { values[index_of(id)] = v; }
};

/// The performance data pool for one application run.
///
/// Column-per-snapshot orientation follows the paper's A(n x m); the matrix
/// converters below provide both orientations because the learning code
/// prefers observation-per-row.
class DataPool {
 public:
  DataPool() = default;
  explicit DataPool(std::string node_ip) : node_ip_(std::move(node_ip)) {}

  void add(Snapshot snapshot);

  std::size_t size() const noexcept { return snapshots_.size(); }
  bool empty() const noexcept { return snapshots_.empty(); }
  const Snapshot& operator[](std::size_t i) const { return snapshots_[i]; }
  std::span<const Snapshot> snapshots() const noexcept { return snapshots_; }
  const std::string& node_ip() const noexcept { return node_ip_; }

  /// Start/end sampling times (t0, t1); pool must be non-empty.
  SimTime start_time() const;
  SimTime end_time() const;

  /// Observation-per-row matrix restricted to `selected` metrics (m x p):
  /// the learning code's orientation, the transpose of the paper's A(n x m).
  linalg::Matrix to_observation_major(std::span<const MetricId> selected) const;

 private:
  std::string node_ip_;
  std::vector<Snapshot> snapshots_;
};

/// Serializes a pool to CSV (`time,node_ip,<33 metric columns>`).
std::string to_csv(const DataPool& pool);

/// Parses a pool from CSV produced by `to_csv`. Throws std::runtime_error on
/// malformed input (wrong column count, non-numeric cells).
DataPool from_csv(const std::string& csv);

}  // namespace appclass::metrics
