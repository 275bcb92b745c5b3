#include "obs/health.hpp"

#include <atomic>
#include <cmath>
#include <sstream>

#include "common/json.hpp"
#include "obs/log.hpp"

namespace appclass::obs {
namespace {

/// Vote shares and margins live in (0, 1]; five equal buckets resolve
/// the interesting boundary (unanimous vs split neighbourhoods).
const std::vector<double>& share_buckets() {
  static const std::vector<double> bounds{0.2, 0.4, 0.6, 0.8, 1.0};
  return bounds;
}

/// Per-node scorecards kept exactly; further nodes fold into "other".
constexpr std::size_t kTopNodes = 16;
/// Rolling window (samples) behind the novel-fraction gauge.
constexpr std::size_t kNovelWindow = 256;

std::atomic<ModelHealth*> g_instance{nullptr};

/// `text` as a JSON string literal (node IPs, class names).
void append_escaped(std::ostream& out, std::string_view text) {
  std::string quoted = "\"";
  common::json_escape_into(quoted, text);
  out << quoted << '"';
}

}  // namespace

ModelHealth* ModelHealth::instance() noexcept {
  return g_instance.load(std::memory_order_acquire);
}

void ModelHealth::set_instance(ModelHealth* health) noexcept {
  g_instance.store(health, std::memory_order_release);
}

ModelHealth::ModelHealth(ModelHealthOptions options)
    : options_(std::move(options)),
      node_labels_(kTopNodes),
      drift_(options_.drift_window),
      novel_ring_(kNovelWindow, false),
      novel_total_(MetricsRegistry::global().counter(
          "appclass_health_novel_total")),
      abstained_total_(MetricsRegistry::global().counter(
          "appclass_health_abstained_total")),
      novel_fraction_gauge_(MetricsRegistry::global().gauge(
          "appclass_health_novel_fraction")),
      degraded_nodes_gauge_(MetricsRegistry::global().gauge(
          "appclass_health_degraded_nodes")),
      tracked_nodes_gauge_(MetricsRegistry::global().gauge(
          "appclass_health_tracked_nodes")) {
  classes_.resize(options_.class_names.size());
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    const Labels labels{{"class", options_.class_names[i]}};
    auto& registry = MetricsRegistry::global();
    classes_[i].samples_total =
        &registry.counter("appclass_health_samples_total", labels);
    classes_[i].confidence = &registry.histogram(
        "appclass_health_confidence", labels, share_buckets());
    classes_[i].margin = &registry.histogram(
        "appclass_health_vote_margin", labels, share_buckets());
  }
  other_.per_class.assign(classes_.size(), 0);
}

void ModelHealth::on_drift(DriftDetector::DriftCallback callback) {
  const std::lock_guard lock(mutex_);
  flush_drift_locked();
  drift_.on_drift(std::move(callback));
}

void ModelHealth::set_drift_reference(std::span<const double> row_major,
                                      std::size_t components) {
  const std::lock_guard lock(mutex_);
  flush_drift_locked();
  drift_.set_reference(row_major, components);
}

ModelHealth::NodeStats& ModelHealth::node_stats_locked(
    std::string_view node_ip) {
  const std::string& label = node_labels_.admit(node_ip);
  if (&label == &node_labels_.overflow_label()) return other_;
  const auto it = nodes_.find(label);
  if (it != nodes_.end()) return it->second;
  NodeStats& node = nodes_[label];
  node.per_class.assign(classes_.size(), 0);
  node.coverage_gauge = &MetricsRegistry::global().gauge(
      "appclass_health_coverage", {{"node", label}});
  tracked_nodes_gauge_.set(static_cast<double>(nodes_.size()));
  return node;
}

void ModelHealth::record(const HealthSample& sample) {
  const std::lock_guard lock(mutex_);
  ++samples_;

  // Per-class accounting (the label is assigned even for an abstained
  // observation — it enters the window, it just cannot vote).
  if (sample.class_index < classes_.size()) {
    ClassStats& cls = classes_[sample.class_index];
    ++cls.samples;
    cls.samples_total->inc();
    if (std::isfinite(sample.confidence)) {
      cls.confidence_sum += sample.confidence;
      ++cls.confidence_count;
      if (sample.confidence <= 0.5) ++cls.low_confidence;
      cls.confidence->observe(sample.confidence);
    }
    if (std::isfinite(sample.vote_margin)) {
      cls.margin_sum += sample.vote_margin;
      ++cls.margin_count;
      cls.margin->observe(sample.vote_margin);
    }
  }

  // Rolling novel fraction.
  if (novel_size_ == novel_ring_.size()) {
    if (novel_ring_[novel_head_]) --novel_count_;
  } else {
    ++novel_size_;
  }
  novel_ring_[novel_head_] = sample.novel;
  if (++novel_head_ == novel_ring_.size()) novel_head_ = 0;
  if (sample.novel) {
    ++novel_count_;
    novel_total_.inc();
  }
  novel_fraction_gauge_.set(static_cast<double>(novel_count_) /
                            static_cast<double>(novel_size_));

  // Per-node scorecard (bounded: top-K exact, the rest into "other").
  NodeStats& node = node_stats_locked(sample.node_ip);
  ++node.samples;
  if (sample.class_index < node.per_class.size())
    ++node.per_class[sample.class_index];
  node.last_class = sample.class_index;
  node.coverage = sample.coverage;
  if (node.coverage_gauge) node.coverage_gauge->set(sample.coverage);
  const bool was_degraded = node.degraded;
  node.degraded = sample.degraded;
  if (node.degraded != was_degraded) {
    std::size_t degraded = other_.degraded ? 1u : 0u;
    for (const auto& [name, n] : nodes_)
      if (n.degraded) ++degraded;
    degraded_nodes_gauge_.set(static_cast<double>(degraded));
  }
  if (sample.abstained) {
    ++abstained_;
    ++node.abstained;
    abstained_total_.inc();
  }
  if (sample.novel) ++node.novel;

  // Drift feed: the projected coordinates of every classified snapshot.
  if (options_.drift_enabled && !sample.projected.empty())
    queue_drift_locked(sample.projected);
}

void ModelHealth::queue_drift_locked(std::span<const double> projected) {
  if (projected.size() != drift_components_) {
    flush_drift_locked();
    drift_components_ = projected.size();
    drift_queue_.reserve(DriftDetector::kStride * drift_components_);
  }
  drift_queue_.insert(drift_queue_.end(), projected.begin(), projected.end());
  if (drift_queue_.size() == DriftDetector::kStride * drift_components_)
    flush_drift_locked();
}

void ModelHealth::flush_drift_locked() const {
  if (drift_queue_.empty()) return;
  drift_.observe_batch(drift_queue_, drift_components_);
  drift_queue_.clear();
}

std::string ModelHealth::classes_json() const {
  const std::lock_guard lock(mutex_);
  std::ostringstream out;
  out << "{\"total_samples\":" << samples_
      << ",\"abstained\":" << abstained_
      << ",\"novel_fraction\":"
      << (novel_size_ == 0
              ? 0.0
              : static_cast<double>(novel_count_) /
                    static_cast<double>(novel_size_))
      << ",\"classes\":[";
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    const ClassStats& cls = classes_[i];
    if (i) out << ',';
    out << "{\"class\":";
    append_escaped(out, options_.class_names[i]);
    out << ",\"samples\":" << cls.samples << ",\"share\":"
        << (samples_ == 0 ? 0.0
                          : static_cast<double>(cls.samples) /
                                static_cast<double>(samples_))
        << ",\"mean_confidence\":"
        << (cls.confidence_count == 0
                ? 0.0
                : cls.confidence_sum /
                      static_cast<double>(cls.confidence_count))
        << ",\"mean_vote_margin\":"
        << (cls.margin_count == 0
                ? 0.0
                : cls.margin_sum / static_cast<double>(cls.margin_count))
        << ",\"low_confidence\":" << cls.low_confidence << '}';
  }
  out << "]}";
  return out.str();
}

std::vector<std::uint64_t> ModelHealth::class_sample_counts() const {
  const std::lock_guard lock(mutex_);
  std::vector<std::uint64_t> out;
  out.reserve(classes_.size());
  for (const ClassStats& cls : classes_) out.push_back(cls.samples);
  return out;
}

void ModelHealth::append_node_json(std::ostream& out,
                                   const std::string& name,
                                   const NodeStats& node) const {
  out << "{\"node\":";
  append_escaped(out, name);
  out << ",\"samples\":" << node.samples
      << ",\"abstained\":" << node.abstained << ",\"novel\":" << node.novel
      << ",\"coverage\":" << node.coverage
      << ",\"degraded\":" << (node.degraded ? "true" : "false")
      << ",\"last_class\":";
  append_escaped(out, node.last_class < options_.class_names.size()
                          ? options_.class_names[node.last_class]
                          : "?");
  out << ",\"per_class\":{";
  bool first = true;
  for (std::size_t i = 0;
       i < node.per_class.size() && i < options_.class_names.size(); ++i) {
    if (node.per_class[i] == 0) continue;
    if (!first) out << ',';
    first = false;
    append_escaped(out, options_.class_names[i]);
    out << ':' << node.per_class[i];
  }
  out << "}}";
}

std::string ModelHealth::nodes_json() const {
  const std::lock_guard lock(mutex_);
  std::ostringstream out;
  out << "{\"tracked\":" << nodes_.size()
      << ",\"top_nodes\":" << kTopNodes
      << ",\"overflowed\":" << node_labels_.overflowed() << ",\"nodes\":[";
  bool first = true;
  for (const auto& [name, node] : nodes_) {
    if (!first) out << ',';
    first = false;
    append_node_json(out, name, node);
  }
  out << ']';
  if (other_.samples > 0) {
    out << ",\"other\":";
    append_node_json(out, node_labels_.overflow_label(), other_);
  }
  out << '}';
  return out.str();
}

std::string ModelHealth::drift_json() const {
  const std::lock_guard lock(mutex_);
  flush_drift_locked();
  return drift_.to_json();
}

ModelHealth::Status ModelHealth::status() const {
  const std::lock_guard lock(mutex_);
  flush_drift_locked();
  Status status;
  std::ostringstream degraded;
  bool first = true;
  const auto add = [&](const std::string& name, const NodeStats& node) {
    if (!node.degraded) return;
    ++status.degraded_nodes;
    if (!first) degraded << ',';
    first = false;
    degraded << "{\"node\":";
    append_escaped(degraded, name);
    degraded << ",\"coverage\":" << node.coverage << '}';
  };
  for (const auto& [name, node] : nodes_) add(name, node);
  add(node_labels_.overflow_label(), other_);
  status.healthy = status.degraded_nodes == 0;

  std::ostringstream out;
  out << "{\"status\":\"" << (status.healthy ? "ok" : "degraded")
      << "\",\"degraded_nodes\":" << status.degraded_nodes
      << ",\"samples\":" << samples_
      << ",\"drift_events\":" << drift_.events();
  if (!status.healthy) out << ",\"degraded\":[" << degraded.str() << ']';
  out << '}';
  status.reason_json = out.str();
  return status;
}

std::string ModelHealth::summary_line() const {
  const std::lock_guard lock(mutex_);
  flush_drift_locked();
  std::size_t degraded = other_.degraded ? 1u : 0u;
  for (const auto& [name, node] : nodes_)
    if (node.degraded) ++degraded;
  std::ostringstream out;
  out << "health: samples=" << samples_ << " abstained=" << abstained_
      << " nodes=" << nodes_.size() << " degraded=" << degraded
      << " novel="
      << (novel_size_ == 0 ? 0.0
                           : 100.0 * static_cast<double>(novel_count_) /
                                 static_cast<double>(novel_size_))
      << "% drift_max=" << drift_.max_score()
      << " drift_events=" << drift_.events();
  return out.str();
}

std::uint64_t ModelHealth::samples() const {
  const std::lock_guard lock(mutex_);
  return samples_;
}

std::uint64_t ModelHealth::abstained() const {
  const std::lock_guard lock(mutex_);
  return abstained_;
}

std::uint64_t ModelHealth::drift_events() const {
  const std::lock_guard lock(mutex_);
  flush_drift_locked();
  return drift_.events();
}

double ModelHealth::novel_fraction() const {
  const std::lock_guard lock(mutex_);
  return novel_size_ == 0 ? 0.0
                          : static_cast<double>(novel_count_) /
                                static_cast<double>(novel_size_);
}

}  // namespace appclass::obs
