#include "monitor/gmetad.hpp"

#include <algorithm>

#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace appclass::monitor {
namespace {

/// A node silent for longer than this (in cluster time) is dead.
constexpr metrics::SimTime kLivenessTimeoutS = 60;

struct GmetadMetrics {
  obs::Counter& announcements = obs::MetricsRegistry::global().counter(
      "appclass_gmetad_announcements_total");
  obs::Gauge& nodes =
      obs::MetricsRegistry::global().gauge("appclass_gmetad_nodes");
  obs::Counter& deaths = obs::MetricsRegistry::global().counter(
      "appclass_gmetad_node_deaths_total");
  obs::Counter& recoveries = obs::MetricsRegistry::global().counter(
      "appclass_gmetad_node_recoveries_total");
};

GmetadMetrics& gmetad_metrics() {
  static GmetadMetrics metrics;
  return metrics;
}

}  // namespace

Gmetad::Gmetad(MetricBus& bus) : bus_(bus) {
  subscription_ = bus_.subscribe(
      [this](const metrics::Snapshot& s) { on_announce(s); });
}

Gmetad::~Gmetad() { bus_.unsubscribe(subscription_); }

void Gmetad::on_announce(const metrics::Snapshot& snapshot) {
  GmetadMetrics& gm = gmetad_metrics();
  newest_time_ = std::max(newest_time_, snapshot.time);

  auto [it, inserted] = nodes_.try_emplace(snapshot.node_ip);
  NodeRecord& record = it->second;
  const bool was_dead = !inserted && record.dead;
  if (inserted || snapshot.time >= record.snapshot.time)
    record.snapshot = snapshot;
  if (was_dead && alive(record.snapshot)) {
    record.dead = false;
    gm.recoveries.inc();
    APPCLASS_LOG_INFO("gmetad.node_recovery", {"node", snapshot.node_ip},
                      {"time", snapshot.time});
  }

  // Detect deaths exposed by this announcement advancing cluster time.
  for (auto& [ip, other] : nodes_) {
    if (other.dead || alive(other.snapshot)) continue;
    other.dead = true;
    gm.deaths.inc();
    APPCLASS_LOG_WARN("gmetad.node_death", {"node", ip},
                      {"last_seen", other.snapshot.time},
                      {"time", newest_time_});
  }

  gm.announcements.inc();
  gm.nodes.set(static_cast<double>(nodes_.size()));
}

bool Gmetad::alive(const metrics::Snapshot& snapshot) const {
  return newest_time_ - snapshot.time <= kLivenessTimeoutS;
}

std::optional<metrics::Snapshot> Gmetad::latest(
    const std::string& node_ip) const {
  const auto it = nodes_.find(node_ip);
  if (it == nodes_.end()) return std::nullopt;
  return it->second.snapshot;
}

}  // namespace appclass::monitor
