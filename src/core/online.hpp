// Online (streaming) classification service.
//
// Wraps a trained pipeline behind a push interface suitable for wiring
// directly to the monitoring bus: feed it every announced snapshot and it
// maintains, per node, a rolling window of labels, the current rolling
// composition, and a debounced "behaviour changed" event stream — the
// online counterpart of the paper's offline post-processing, and the
// mechanism a migration-capable scheduler would subscribe to.
//
// The window is time-aware: entries older than the window's time horizon
// are evicted, so after a monitoring blackout the classifier knows its
// evidence is thin. While coverage (valid samples / expected samples) is
// below `min_coverage` it abstains — the last stable class is held, no
// behaviour change can fire, and the abstention is counted — instead of
// voting on whatever fragments survived.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "obs/health.hpp"

namespace appclass::core {

/// ModelHealthOptions pre-filled with this domain's class names (obs is a
/// lower layer and does not know them). `drift_window` sizes the drift
/// detector's sliding window; 0 keeps the ModelHealthOptions default.
obs::ModelHealthOptions make_health_options(std::size_t drift_window = 0);

struct OnlineOptions {
  /// Only snapshots with time % sampling_interval_s == 0 are classified
  /// (mirrors the profiler's period d).
  int sampling_interval_s = 5;
  /// Rolling window length, in classified samples.
  std::size_t window = 12;
  /// A behaviour change is reported only after the new dominant class has
  /// held for this many consecutive samples (debounce).
  std::size_t stability = 3;
  /// Coverage-aware abstention threshold: when the rolling window holds
  /// fewer than this fraction of the samples it should hold (given the
  /// sampling grid and the window's time horizon), stable-class updates
  /// are suspended and the node reports degraded. 0 disables abstention.
  double min_coverage = 0.5;
};

/// A reported behaviour change on one node.
struct BehaviourChange {
  std::string node_ip;
  metrics::SimTime time = 0;
  ApplicationClass from = ApplicationClass::kIdle;
  ApplicationClass to = ApplicationClass::kIdle;
};

/// Complete serializable image of an OnlineClassifier's mutable state —
/// everything checkpoint/recovery must persist so a restarted process
/// resumes with bit-identical windows, debounce streaks, and counters.
/// Nodes are ordered by node_ip (the classifier's own map order), so two
/// equal states always encode identically.
struct OnlineNodeImage {
  std::string node_ip;
  /// (time, label) pairs in window order (oldest first).
  std::vector<std::pair<metrics::SimTime, ApplicationClass>> window;
  std::optional<ApplicationClass> stable_class;
  ApplicationClass candidate = ApplicationClass::kIdle;
  std::size_t candidate_streak = 0;
  metrics::SimTime first_time = 0;
  double coverage = 1.0;
};

struct OnlineStateImage {
  std::size_t classified = 0;
  std::size_t abstained = 0;
  std::vector<OnlineNodeImage> nodes;
};

class OnlineClassifier {
 public:
  using ChangeCallback = std::function<void(const BehaviourChange&)>;

  /// The pipeline must stay alive for the classifier's lifetime.
  OnlineClassifier(const ClassificationPipeline& pipeline,
                   OnlineOptions options = {});

  /// Feeds one announced snapshot; classifies it if it falls on the
  /// sampling grid. Returns the label assigned, if any. Equivalent to
  /// on_grid() + pipeline.classify() + ingest().
  std::optional<ApplicationClass> observe(const metrics::Snapshot& snapshot);

  /// True when `snapshot` falls on the sampling grid (would be classified).
  bool on_grid(const metrics::Snapshot& snapshot) const noexcept {
    return snapshot.time % options_.sampling_interval_s == 0;
  }

  /// Applies an already-computed label for a grid-aligned snapshot:
  /// window/coverage bookkeeping, debounce, change callback. Split from
  /// observe() so a fleet drain can classify a batch of buffered
  /// snapshots in parallel and then ingest the labels serially in push
  /// order — state updates stay single-threaded and deterministic.
  void ingest(const metrics::Snapshot& snapshot, ApplicationClass label);

  /// Same, from the detailed evidence of classify_detailed(): identical
  /// label bookkeeping, plus — when a health aggregator is attached —
  /// confidence/margin/novelty accounting and the drift feed.
  void ingest(const metrics::Snapshot& snapshot,
              const SnapshotClassification& detail);

  /// Attaches a model-health aggregator (nullptr detaches; not owned).
  /// Health recording is strictly observational: labels, window state,
  /// and behaviour-change events are bit-identical with or without it.
  void attach_health(obs::ModelHealth* health) noexcept { health_ = health; }
  obs::ModelHealth* health() const noexcept { return health_; }

  /// Called whenever a node's debounced dominant class changes.
  void on_change(ChangeCallback callback) { callback_ = std::move(callback); }

  /// Rolling composition of a node's current window (empty if unseen).
  std::optional<ClassComposition> composition(
      const std::string& node_ip) const;

  /// Debounced dominant class of a node (nullopt if unseen). Held at the
  /// last stable value while the node is degraded.
  std::optional<ApplicationClass> current_class(
      const std::string& node_ip) const;

  /// Fraction (0, 1] of expected window samples actually present — the
  /// confidence discount after losses/blackouts. Nullopt if unseen.
  std::optional<double> coverage(const std::string& node_ip) const;

  /// True while a node's coverage is below min_coverage (abstaining).
  bool degraded(const std::string& node_ip) const;

  /// Total snapshots classified across all nodes.
  std::size_t classified_count() const noexcept { return classified_; }

  /// Grid-aligned observations absorbed while abstaining.
  std::size_t abstained_count() const noexcept { return abstained_; }

  /// The options the classifier was constructed with (checkpoints persist
  /// them so recovery can refuse a state written under different knobs).
  const OnlineOptions& options() const noexcept { return options_; }

  /// Snapshot of all mutable state, for checkpointing. Deterministic:
  /// equal classifier states produce equal images.
  OnlineStateImage export_state() const;

  /// Replaces all mutable state with `image` (inverse of export_state).
  /// The pipeline and options are NOT part of the image — the caller must
  /// reconstruct the classifier under the same ones for recovered
  /// classifications to be meaningful.
  void import_state(const OnlineStateImage& image);

 private:
  /// Bounded (time, label) ring replacing the former std::deque window:
  /// a deque allocates and frees a chunk every few dozen push/pop cycles,
  /// which would keep the steady-state ingest path off zero allocations.
  /// Capacity is fixed at first use (OnlineOptions::window + 1, so the
  /// push-then-evict ingest sequence never grows it); all operations are
  /// allocation-free afterwards.
  class LabelWindow {
   public:
    using Entry = std::pair<metrics::SimTime, ApplicationClass>;

    std::size_t size() const noexcept { return count_; }
    bool empty() const noexcept { return count_ == 0; }
    const Entry& front() const { return slots_[head_]; }
    /// Logical indexing, 0 = oldest.
    const Entry& at(std::size_t i) const {
      return slots_[(head_ + i) % slots_.size()];
    }

    /// Grow-only; no-op once at least `cap` slots exist.
    void ensure_capacity(std::size_t cap) {
      if (slots_.size() >= cap) return;
      std::vector<Entry> next(cap);
      for (std::size_t i = 0; i < count_; ++i) next[i] = at(i);
      slots_.swap(next);
      head_ = 0;
    }

    void push_back(Entry entry) {
      if (count_ == slots_.size()) ensure_capacity(count_ * 2 + 1);
      slots_[(head_ + count_) % slots_.size()] = entry;
      ++count_;
      ++class_counts_[index_of(entry.second)];
    }

    void pop_front() {
      --class_counts_[index_of(slots_[head_].second)];
      head_ = (head_ + 1) % slots_.size();
      --count_;
    }

    /// Rolling majority class of the window, maintained incrementally:
    /// argmax over the per-class occupancy counts kept in sync by
    /// push_back/pop_front. Strict `>` with ascending class index is
    /// exactly majority_vote() over the window's label vector — distinct
    /// small-integer counts divided by the same window size stay
    /// distinct doubles, so the fraction argmax and the count argmax
    /// pick the same class, ties included — without re-copying and
    /// re-counting the window on every ingest. Window must be non-empty.
    ApplicationClass dominant() const noexcept {
      std::size_t best = 0;
      for (std::size_t c = 1; c < kClassCount; ++c)
        if (class_counts_[c] > class_counts_[best]) best = c;
      return class_from_index(best);
    }

   private:
    std::vector<Entry> slots_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    std::array<std::uint32_t, kClassCount> class_counts_{};
  };

  struct NodeState {
    LabelWindow window;
    std::optional<ApplicationClass> stable_class;
    ApplicationClass candidate = ApplicationClass::kIdle;
    std::size_t candidate_streak = 0;
    metrics::SimTime first_time = 0;
    double coverage = 1.0;
  };

  /// Drops window entries older than the window's time horizon and
  /// recomputes coverage as of `now`.
  void refresh_window(NodeState& node, metrics::SimTime now);

  /// Shared ingest body; `detail` is nullptr on the label-only path.
  void ingest_impl(const metrics::Snapshot& snapshot, ApplicationClass label,
                   const SnapshotClassification* detail);

  /// Hot-path node lookup: open-addressing index over nodes_ (hash +
  /// one string compare instead of an ordered-map descent). Falls back
  /// to the map — and rebuilds the index — only when a node is first
  /// seen, so steady-state ingest never allocates here.
  NodeState& node_state(const std::string& node_ip);
  void rebuild_node_index();

  const ClassificationPipeline& pipeline_;
  OnlineOptions options_;
  ChangeCallback callback_;
  obs::ModelHealth* health_ = nullptr;
  /// Ordered by node_ip: export_state()'s deterministic encoding and the
  /// cold query paths iterate it. Node entries are pointer-stable, which
  /// is what lets the flat index below hold raw pointers into it.
  std::map<std::string, NodeState> nodes_;
  struct NodeIndexSlot {
    std::size_t hash = 0;
    const std::string* key = nullptr;
    NodeState* state = nullptr;
  };
  /// Power-of-two open-addressing table over nodes_ (linear probing,
  /// ~half empty). Rebuilt whenever the node set changes.
  std::vector<NodeIndexSlot> node_index_;
  std::size_t classified_ = 0;
  std::size_t abstained_ = 0;
};

}  // namespace appclass::core
