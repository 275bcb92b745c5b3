#include "obs/drift.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace appclass::obs {
namespace {

/// Proportion floor: keeps ln(p_cur / p_ref) finite when a bucket is
/// empty on one side. 1e-4 is the conventional PSI smoothing value.
constexpr double kEpsilon = 1e-4;
/// PSI histogram buckets; edges are reference-window quantiles.
constexpr std::size_t kBins = 10;
/// Score recomputation stride in samples: events fire at the same stream
/// positions modulo the stride, for a sixteenth of the rescore cost.
constexpr std::size_t kStride = 16;

Counter& events_counter() {
  return MetricsRegistry::global().counter("appclass_drift_events_total");
}

}  // namespace

DriftDetector::DriftDetector(std::size_t window)
    : window_(std::max(window, kBins)) {
  count_prop_.resize(window_ + 1);
  count_log_prop_.resize(window_ + 1);
  const double total = static_cast<double>(window_);
  for (std::size_t k = 0; k <= window_; ++k) {
    count_prop_[k] = std::max(static_cast<double>(k) / total, kEpsilon);
    count_log_prop_[k] = std::log(count_prop_[k]);
  }
}

void DriftDetector::ensure_components(std::size_t n) {
  if (!components_.empty()) return;
  components_.resize(n);
  edges_.assign(n * (kBins - 1), 0.0);
  ring_.assign(window_ * n, 0);
  counts_.assign(n * kBins, 0);
  for (std::size_t j = 0; j < n; ++j) {
    Component& c = components_[j];
    const Labels labels{{"component", std::to_string(j)}};
    c.score_gauge =
        &MetricsRegistry::global().gauge("appclass_drift_score", labels);
    c.active_gauge =
        &MetricsRegistry::global().gauge("appclass_drift_active", labels);
  }
}

void DriftDetector::set_reference(std::span<const double> row_major,
                                  std::size_t components) {
  if (components == 0 || row_major.size() < components * kBins)
    return;
  ensure_components(components);
  const std::size_t samples = row_major.size() / components;
  for (std::size_t j = 0; j < components; ++j) {
    std::vector<double> values(samples);
    for (std::size_t i = 0; i < samples; ++i)
      values[i] = row_major[i * components + j];
    freeze_component(j, std::move(values));
  }
  reference_ready_ = true;
}

void DriftDetector::freeze_component(std::size_t component,
                                     std::vector<double> values) {
  Component& c = components_[component];
  std::sort(values.begin(), values.end());
  // Interior edges at the i/bins quantiles of the reference sample; equal
  // edges (heavily tied data) simply leave some buckets empty, which the
  // epsilon floor absorbs.
  double* edges = &edges_[component * (kBins - 1)];
  const std::size_t n = values.size();
  for (std::size_t b = 1; b < kBins; ++b) {
    const std::size_t at =
        std::min(n - 1, b * n / kBins);
    edges[b - 1] = values[at];
  }
  // Reference proportions of the same sample through the frozen edges.
  std::vector<std::uint32_t> counts(kBins, 0);
  for (const double v : values) ++counts[bucket_of(component, v)];
  c.reference.resize(kBins);
  c.log_reference.resize(kBins);
  for (std::size_t b = 0; b < kBins; ++b) {
    c.reference[b] = std::max(
        static_cast<double>(counts[b]) / static_cast<double>(n), kEpsilon);
    c.log_reference[b] = std::log(c.reference[b]);
  }
  c.warmup.clear();
  c.warmup.shrink_to_fit();
}

std::size_t DriftDetector::bucket_of(std::size_t component,
                                     double value) const {
  if (std::isnan(value)) return kBins - 1;
  // Branchless count of edges <= value. The edge array is tiny (bins - 1
  // doubles, always cache-hot), so a predictable linear pass beats binary
  // search's mispredicted branches on the per-sample path.
  const double* edges = &edges_[component * (kBins - 1)];
  std::size_t b = 0;
  for (std::size_t e = 0; e + 1 < kBins; ++e)
    b += static_cast<std::size_t>(value >= edges[e]);
  return b;
}

void DriftDetector::freeze_reference() {
  for (std::size_t j = 0; j < components_.size(); ++j)
    freeze_component(j, std::move(components_[j].warmup));
  reference_ready_ = true;
  APPCLASS_LOG_INFO("drift.reference_frozen",
                    {"samples", 2 * window_},
                    {"components", components_.size()});
}

void DriftDetector::observe(std::span<const double> projected) {
  if (projected.empty()) return;
  ensure_components(projected.size());
  if (projected.size() != components_.size()) return;
  ++samples_seen_;

  if (!reference_ready_) {
    for (std::size_t j = 0; j < components_.size(); ++j)
      components_[j].warmup.push_back(projected[j]);
    if (components_[0].warmup.size() >= 2 * window_)
      freeze_reference();
    return;
  }

  // The window slides in lockstep across components: one shared ring
  // slot holds every component's bucket for this sample.
  const std::size_t n = components_.size();
  std::uint8_t* slot = &ring_[ring_head_ * n];
  const bool evicting = ring_size_ == window_;
  if (!evicting) ++ring_size_;
  for (std::size_t j = 0; j < n; ++j) {
    const auto bucket =
        static_cast<std::uint8_t>(bucket_of(j, projected[j]));
    std::uint32_t* counts = &counts_[j * kBins];
    if (evicting) --counts[slot[j]];
    slot[j] = bucket;
    ++counts[bucket];
  }
  // Compare-and-reset, not modulo: integer divisions are the single
  // largest cost on this per-sample path.
  if (++ring_head_ == window_) ring_head_ = 0;

  if (++since_rescore_ >= kStride) {
    since_rescore_ = 0;
    rescore();
  }
}

void DriftDetector::rescore() {
  if (ring_size_ < window_) return;  // window still filling
  for (std::size_t j = 0; j < components_.size(); ++j) {
    Component& c = components_[j];
    const std::uint32_t* counts = &counts_[j * kBins];
    double psi = 0.0;
    for (std::size_t b = 0; b < kBins; ++b) {
      // counts[b] <= window, so both factors come from the tables: no
      // divisions or logs on the streaming path.
      psi += (count_prop_[counts[b]] - c.reference[b]) *
             (count_log_prop_[counts[b]] - c.log_reference[b]);
    }
    c.score = psi;
    c.score_gauge->set(psi);
    if (!c.drifting && psi >= kFireThreshold) {
      c.drifting = true;
      ++events_;
      events_counter().inc();
      c.active_gauge->set(1.0);
      APPCLASS_LOG_WARN("drift.fired", {"component", j}, {"score", psi},
                        {"sample", samples_seen_});
      if (callback_) callback_(j, psi);
    } else if (c.drifting && psi <= kClearThreshold) {
      c.drifting = false;
      c.active_gauge->set(0.0);
      APPCLASS_LOG_INFO("drift.cleared", {"component", j}, {"score", psi},
                        {"sample", samples_seen_});
    }
  }
}

double DriftDetector::score(std::size_t component) const {
  return component < components_.size() ? components_[component].score : 0.0;
}

double DriftDetector::max_score() const {
  double best = 0.0;
  for (const auto& c : components_) best = std::max(best, c.score);
  return best;
}

bool DriftDetector::drifting(std::size_t component) const {
  return component < components_.size() && components_[component].drifting;
}

std::string DriftDetector::to_json() const {
  std::ostringstream out;
  out << "{\"reference_ready\":" << (reference_ready_ ? "true" : "false")
      << ",\"samples\":" << samples_seen_ << ",\"events\":" << events_
      << ",\"window\":" << window_
      << ",\"reference_window\":" << 2 * window_
      << ",\"fire_threshold\":" << kFireThreshold
      << ",\"clear_threshold\":" << kClearThreshold
      << ",\"components\":[";
  for (std::size_t j = 0; j < components_.size(); ++j) {
    const Component& c = components_[j];
    if (j) out << ',';
    out << "{\"component\":" << j << ",\"score\":" << c.score
        << ",\"drifting\":" << (c.drifting ? "true" : "false") << '}';
  }
  out << "]}";
  return out.str();
}

}  // namespace appclass::obs
