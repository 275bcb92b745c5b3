#include "monitor/gmetad.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace appclass::monitor {
namespace {

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

Gmetad::Gmetad(MetricBus& bus, metrics::SimTime liveness_timeout_s)
    : bus_(bus), liveness_timeout_s_(liveness_timeout_s) {
  APPCLASS_EXPECTS(liveness_timeout_s >= 1);
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
  return newest_time_ - snapshot.time <= liveness_timeout_s_;
}

std::size_t Gmetad::node_count() const { return nodes_.size(); }

std::optional<metrics::Snapshot> Gmetad::latest(
    const std::string& node_ip) const {
  const auto it = nodes_.find(node_ip);
  if (it == nodes_.end()) return std::nullopt;
  return it->second.snapshot;
}

std::optional<MetricSummary> Gmetad::summary(metrics::MetricId id) const {
  MetricSummary out;
  bool first = true;
  for (const auto& [ip, record] : nodes_) {
    if (!alive(record.snapshot)) continue;
    const double v = record.snapshot.get(id);
    out.sum += v;
    if (first) {
      out.min = out.max = v;
      first = false;
    } else {
      out.min = std::min(out.min, v);
      out.max = std::max(out.max, v);
    }
    ++out.nodes;
  }
  if (out.nodes == 0) return std::nullopt;
  out.mean = out.sum / static_cast<double>(out.nodes);
  return out;
}

std::optional<std::string> Gmetad::argmax(metrics::MetricId id) const {
  std::optional<std::string> best;
  double best_value = 0.0;
  for (const auto& [ip, record] : nodes_) {
    if (!alive(record.snapshot)) continue;
    const double v = record.snapshot.get(id);
    if (!best || v > best_value) {
      best = ip;
      best_value = v;
    }
  }
  return best;
}

}  // namespace appclass::monitor
