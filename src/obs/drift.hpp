// Online drift detection over a projected feature stream.
//
// Workload behaviour drifts in real clusters (Jakobsche et al.,
// arXiv:2109.04766; Stefanini et al., arXiv:1903.01930), and a k-NN
// model trained on yesterday's canonical runs silently degrades when it
// does. This detector watches the stream of PCA-space coordinates the
// classifier already computes per snapshot and scores, per component,
// how far the current sliding window has moved from a reference window
// using the Population Stability Index:
//
//   PSI = sum_b (p_cur[b] - p_ref[b]) * ln(p_cur[b] / p_ref[b])
//
// over `bins` buckets whose edges are the reference window's quantiles.
// The reference freezes itself from the first `reference_window` samples
// observed (the serving distribution the operator implicitly accepted at
// deploy time), so a stationary stream scores ~0 while a phase change —
// an application switching behaviour class mid-run — spikes the score of
// whichever component separates the clusters. Conventional reading:
// PSI < 0.1 stable, 0.1-0.25 moderate shift, > 0.25 drifted.
//
// Firing is hysteretic: a component enters the drifting state when its
// score crosses `fire_threshold` (invoking the on_drift callback once,
// on the rising edge) and leaves it only when the score falls back below
// `clear_threshold` — so a score oscillating around the fire line cannot
// ring the alarm every sample. Scores are recomputed every `stride`
// samples, keeping the per-sample cost to a ring-buffer update.
//
// Everything is a pure function of the observed stream: same stream,
// same scores, same events — bit-reproducible, and free of any feedback
// into classification.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace appclass::obs {

struct DriftOptions {
  /// Samples in the frozen reference window (collected first).
  std::size_t reference_window = 256;
  /// Samples in the sliding current window compared against it.
  std::size_t window = 128;
  /// PSI histogram buckets; edges are reference-window quantiles.
  std::size_t bins = 10;
  /// Score recomputation stride in samples (1 = every sample). Purely a
  /// cost knob: events fire at the same stream positions modulo stride.
  std::size_t stride = 16;
  /// Rising-edge threshold: score >= this enters the drifting state.
  double fire_threshold = 0.25;
  /// Falling-edge threshold: score <= this leaves it (hysteresis band).
  double clear_threshold = 0.10;
};

class DriftDetector {
 public:
  /// Called once per rising edge with the component index and its score.
  using DriftCallback = std::function<void(std::size_t component,
                                           double score)>;

  explicit DriftDetector(DriftOptions options = {});

  /// Fixes the reference distribution explicitly instead of self-freezing
  /// from the stream: `row_major` is samples x components, flattened.
  /// Must be called before the first observe(), with at least `bins`
  /// samples.
  void set_reference(std::span<const double> row_major,
                     std::size_t components);

  /// Feeds one projected sample (all components of one snapshot). The
  /// first call fixes the component count; later calls must match it.
  void observe(std::span<const double> projected);

  void on_drift(DriftCallback callback) { callback_ = std::move(callback); }

  std::size_t components() const noexcept { return components_.size(); }
  std::size_t samples_seen() const noexcept { return samples_seen_; }
  /// True once the reference window is frozen and scoring is live.
  bool reference_ready() const noexcept { return reference_ready_; }

  /// Latest PSI of one component (0 until the current window has filled).
  double score(std::size_t component) const;
  /// Largest per-component score.
  double max_score() const;
  /// True while `component` is in the drifting state.
  bool drifting(std::size_t component) const;
  /// Rising edges fired so far, across all components.
  std::uint64_t events() const noexcept { return events_; }

  const DriftOptions& options() const noexcept { return options_; }

  /// {"reference_ready":..,"samples":..,"events":..,"components":[...]}
  std::string to_json() const;

 private:
  struct Component {
    /// Reference proportion per bucket (bins entries, epsilon-floored).
    std::vector<double> reference;
    /// ln(reference[b]), cached at freeze so rescore() is log-free.
    std::vector<double> log_reference;
    double score = 0.0;
    bool drifting = false;
    /// Buffered raw values while the reference is self-freezing.
    std::vector<double> warmup;
    /// Cached registry series (resolved once; hot rescore never locks).
    Gauge* score_gauge = nullptr;
    Gauge* active_gauge = nullptr;
  };

  void ensure_components(std::size_t n);
  void freeze_reference();
  void freeze_component(std::size_t component, std::vector<double> values);
  std::size_t bucket_of(std::size_t component, double value) const;
  void rescore();

  DriftOptions options_;
  DriftCallback callback_;
  std::vector<Component> components_;
  /// Samples since the last rescore (avoids a per-sample modulo).
  std::size_t since_rescore_ = 0;
  // Hot per-sample state lives in flat detector-level arrays — one
  // allocation each instead of three pointer chases per component — and
  // the sliding window advances in lockstep across components, so the
  // ring head and fill are shared.
  /// Interior bucket edges: [component * (bins - 1) + e], ascending.
  std::vector<double> edges_;
  /// Window ring of bucket indices, one slot per sample:
  /// [slot * components + component].
  std::vector<std::uint8_t> ring_;
  /// Current-window bucket counts: [component * bins + b].
  std::vector<std::uint32_t> counts_;
  std::size_t ring_head_ = 0;
  std::size_t ring_size_ = 0;
  /// Current-window bucket counts are integers in [0, window], so the
  /// epsilon-floored proportion and its log are precomputed per count —
  /// rescore() is then pure table arithmetic, no transcendental calls on
  /// the streaming path.
  std::vector<double> count_prop_;
  std::vector<double> count_log_prop_;
  std::size_t samples_seen_ = 0;
  bool reference_ready_ = false;
  std::uint64_t events_ = 0;
};

}  // namespace appclass::obs
