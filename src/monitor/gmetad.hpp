// Ganglia-style cluster aggregation (gmetad).
//
// gmond daemons announce per-node metrics; gmetad listens and maintains
// the cluster view: the freshest snapshot per node, node liveness, and
// cluster-wide summaries (sums and means of every metric). Schedulers use
// the summaries for host/VM selection without touching raw streams, and
// can subscribe to node death/recovery events to react to a degraded
// monitoring plane (a node gone quiet is indistinguishable from a node
// gone down — either way, stop scheduling onto it).
#pragma once

#include <map>
#include <optional>
#include <string>

#include "metrics/snapshot.hpp"
#include "monitor/bus.hpp"

namespace appclass::monitor {

/// Cluster-wide aggregate of one metric.
struct MetricSummary {
  double sum = 0.0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::size_t nodes = 0;
};

class Gmetad {
 public:
  /// Nodes whose last announcement is older than `liveness_timeout_s` are
  /// considered dead and excluded from summaries.
  explicit Gmetad(MetricBus& bus, metrics::SimTime liveness_timeout_s = 60);
  ~Gmetad();

  Gmetad(const Gmetad&) = delete;
  Gmetad& operator=(const Gmetad&) = delete;

  /// Number of nodes ever seen.
  std::size_t node_count() const;

  /// Freshest snapshot of a node, or nullopt if unseen.
  std::optional<metrics::Snapshot> latest(const std::string& node_ip) const;

  /// Cluster summary of one metric over live nodes (nullopt when no node
  /// is alive).
  std::optional<MetricSummary> summary(metrics::MetricId id) const;

  /// Convenience: the live node with the largest current value of a
  /// metric (e.g. most idle CPU), or nullopt when none alive.
  std::optional<std::string> argmax(metrics::MetricId id) const;

 private:
  struct NodeRecord {
    metrics::Snapshot snapshot;
    bool dead = false;
  };

  void on_announce(const metrics::Snapshot& snapshot);
  bool alive(const metrics::Snapshot& snapshot) const;

  MetricBus& bus_;
  metrics::SimTime liveness_timeout_s_;
  SubscriptionId subscription_;
  metrics::SimTime newest_time_ = 0;
  std::map<std::string, NodeRecord> nodes_;
};

}  // namespace appclass::monitor
