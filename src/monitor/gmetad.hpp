// Ganglia-style cluster aggregation (gmetad).
//
// gmond daemons announce per-node metrics; gmetad listens and keeps the
// cluster view: the freshest snapshot per node, which the class-aware
// scheduling policy reads through latest(), and node liveness. A node
// whose last announcement is more than 60 s older than the newest one
// seen is declared dead, and returns to life with its next fresh
// announcement; both edges are counted in
// appclass_gmetad_node_{deaths,recoveries}_total and logged (a node gone
// quiet is indistinguishable from a node gone down — either way, stop
// scheduling onto it).
#pragma once

#include <map>
#include <optional>
#include <string>

#include "metrics/snapshot.hpp"
#include "monitor/bus.hpp"

namespace appclass::monitor {

class Gmetad {
 public:
  explicit Gmetad(MetricBus& bus);
  ~Gmetad();

  Gmetad(const Gmetad&) = delete;
  Gmetad& operator=(const Gmetad&) = delete;

  /// Freshest snapshot of a node, or nullopt if unseen.
  std::optional<metrics::Snapshot> latest(const std::string& node_ip) const;

 private:
  struct NodeRecord {
    metrics::Snapshot snapshot;
    bool dead = false;
  };

  void on_announce(const metrics::Snapshot& snapshot);
  bool alive(const metrics::Snapshot& snapshot) const;

  MetricBus& bus_;
  SubscriptionId subscription_;
  metrics::SimTime newest_time_ = 0;
  std::map<std::string, NodeRecord> nodes_;
};

}  // namespace appclass::monitor
