#include "obs/drift.hpp"

#include <algorithm>
#include <array>
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

/// Bucket of `value` against one component's kBins - 1 ascending edges:
/// the count of edges <= value, NaN in the top bucket. Branch-free: the
/// edge array is tiny and cache-hot, so a predictable linear pass beats
/// binary search's mispredicted branches, and summing the compares as a
/// tree rather than a running count keeps them off one serial chain.
std::size_t bucket_of(const double* edges, double value) {
  static_assert(kBins == 10, "the sum below covers nine edges");
  const auto ge = [value, edges](std::size_t e) {
    return static_cast<std::size_t>(value >= edges[e]);
  };
  const std::size_t below = ((ge(0) + ge(1)) + (ge(2) + ge(3))) +
                            ((ge(4) + ge(5)) + (ge(6) + ge(7))) + ge(8);
  return std::isnan(value) ? kBins - 1 : below;
}

Counter& events_counter() {
  return MetricsRegistry::global().counter("appclass_drift_events_total");
}

}  // namespace

DriftDetector::DriftDetector(std::size_t window)
    : window_(std::max(window, kBins)) {}

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
  for (const double v : values) ++counts[bucket_of(edges, v)];
  // Each bucket's PSI term for every count in [0, window] the current
  // window can hold it at.
  std::array<double, kBins> reference;
  std::array<double, kBins> log_reference;
  for (std::size_t b = 0; b < kBins; ++b) {
    reference[b] = std::max(
        static_cast<double>(counts[b]) / static_cast<double>(n), kEpsilon);
    log_reference[b] = std::log(reference[b]);
  }
  const std::size_t counts_per_bin = window_ + 1;
  c.terms.resize(kBins * counts_per_bin);
  for (std::size_t k = 0; k < counts_per_bin; ++k) {
    const double current = std::max(
        static_cast<double>(k) / static_cast<double>(window_), kEpsilon);
    const double log_current = std::log(current);
    for (std::size_t b = 0; b < kBins; ++b)
      c.terms[b * counts_per_bin + k] =
          (current - reference[b]) * (log_current - log_reference[b]);
  }
  c.warmup.clear();
  c.warmup.shrink_to_fit();
}

void DriftDetector::freeze_reference() {
  for (std::size_t j = 0; j < components_.size(); ++j)
    freeze_component(j, std::move(components_[j].warmup));
  reference_ready_ = true;
  APPCLASS_LOG_INFO("drift.reference_frozen",
                    {"samples", 2 * window_},
                    {"components", components_.size()});
}

void DriftDetector::observe_batch(std::span<const double> row_major,
                                  std::size_t components) {
  if (components == 0 || row_major.size() < components) return;
  ensure_components(components);
  if (components != components_.size()) return;
  const std::size_t samples = row_major.size() / components;
  const double* rows = row_major.data();
  std::size_t i = 0;
  for (; i < samples && !reference_ready_; ++i) {
    ++samples_seen_;
    for (std::size_t j = 0; j < components; ++j)
      components_[j].warmup.push_back(rows[i * components + j]);
    if (components_[0].warmup.size() >= 2 * window_) freeze_reference();
  }
  // Runs end at the next rescore point or ring wrap, so the loop inside
  // slide() carries no per-sample checks. The ring fills from slot 0,
  // so a run never straddles the end of the fill either.
  while (i < samples) {
    const std::size_t run = std::min(
        {samples - i, kStride - since_rescore_, window_ - ring_head_});
    slide(rows + i * components, run);
    i += run;
    samples_seen_ += run;
    if (ring_size_ < window_) ring_size_ += run;
    ring_head_ += run;
    if (ring_head_ == window_) ring_head_ = 0;
    since_rescore_ += run;
    if (since_rescore_ == kStride) {
      since_rescore_ = 0;
      rescore();
    }
  }
}

void DriftDetector::slide(const double* rows, std::size_t samples) {
  // The window slides in lockstep across components: one shared ring
  // slot holds every component's bucket for a sample.
  const std::size_t n = components_.size();
  std::uint8_t* const slots = &ring_[ring_head_ * n];
  const bool evicting = ring_size_ == window_;
  for (std::size_t j = 0; j < n; ++j) {
    const double* const edges = &edges_[j * (kBins - 1)];
    std::uint32_t* const counts = &counts_[j * kBins];
    for (std::size_t s = 0; s < samples; ++s) {
      std::uint8_t& slot = slots[s * n + j];
      if (evicting) --counts[slot];
      slot = static_cast<std::uint8_t>(bucket_of(edges, rows[s * n + j]));
      ++counts[slot];
    }
  }
}

void DriftDetector::rescore() {
  if (ring_size_ < window_) return;  // window still filling
  for (std::size_t j = 0; j < components_.size(); ++j) {
    Component& c = components_[j];
    const std::uint32_t* counts = &counts_[j * kBins];
    // counts[b] <= window, so every term is a table lookup: no
    // divisions or logs on the streaming path.
    const double* terms = c.terms.data();
    double psi = 0.0;
    for (std::size_t b = 0; b < kBins; ++b, terms += window_ + 1)
      psi += terms[counts[b]];
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
