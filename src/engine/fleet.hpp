// Fleet-scale classification: many nodes' online streams through one
// trained pipeline.
//
// FleetStream buffers grid-aligned snapshots pushed from any thread (e.g.
// a monitor::MetricBus subscription) and, on drain(), classifies the
// backlog in parallel on the pipeline's engine::ExecutionContext but
// ingests the labels into the OnlineClassifier serially in push order —
// so window state, debounce, and change events are bit-identical to
// calling observe() snapshot by snapshot.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "core/online.hpp"
#include "core/pipeline.hpp"
#include "engine/snapshot_ring.hpp"
#include "metrics/snapshot.hpp"
#include "monitor/bus.hpp"

namespace appclass::engine {

/// Online fan-in for a whole fleet of nodes.
///
/// The backlog is a pair of SnapshotRings double-buffered between the
/// push side and the drainer: push() assigns into a warmed ring slot
/// under the lock, drain() swaps the rings (O(1)) and classifies the
/// drained ring through the pipeline's batched SoA path. After the rings
/// and the batch have seen their largest drain, a steady-state
/// push→drain cycle performs zero heap allocations (bare-label path; an
/// attached health aggregator adds its own evidence copies).
class FleetStream {
 public:
  /// What to do with a push that finds the bounded backlog full.
  enum class OverflowPolicy {
    /// Drop the newcomer (count on appclass_fleet_dropped_total) — the
    /// default, and the only policy compatible with an ingest hook: the
    /// WAL must never log a snapshot the drain will not ingest.
    kDropNewest,
    /// Overwrite the oldest buffered snapshot (count on
    /// appclass_fleet_overwritten_total): freshest-data-wins for purely
    /// observational streams with no durability hook.
    kOverwriteOldest,
  };

  /// The pipeline must stay alive for the stream's lifetime.
  /// `max_backlog` bounds the pending buffer (0 = unbounded); `policy`
  /// picks what a push into a full buffer sacrifices.
  FleetStream(const core::ClassificationPipeline& pipeline,
              core::OnlineOptions options = {}, std::size_t max_backlog = 0,
              OverflowPolicy policy = OverflowPolicy::kDropNewest);
  ~FleetStream();

  FleetStream(const FleetStream&) = delete;
  FleetStream& operator=(const FleetStream&) = delete;

  /// Buffers one snapshot if it falls on the sampling grid (thread-safe;
  /// off-grid snapshots are dropped exactly as observe() would skip
  /// them). Returns false when the snapshot was dropped on a full buffer.
  bool push(const metrics::Snapshot& snapshot);

  /// Durability hook, called under the stream lock for every *accepted*
  /// push, in exactly the order the snapshots will later be ingested —
  /// the serve path points it at persist::WalWriter::append so the log
  /// order equals ingest order. Returns the snapshot's WAL sequence
  /// number. Keep the callee fast (it runs inside the push critical
  /// section — that is the point: accept and log are atomic with respect
  /// to each other). Installing a hook resets the ingest horizon: the
  /// horizon describes *this* hook's log, and snapshots buffered before
  /// the install carry no sequence and never advance it (hook-attach
  /// mid-stream is safe). Rejected under kOverwriteOldest.
  using IngestHook = std::function<std::uint64_t(const metrics::Snapshot&)>;
  void set_ingest_hook(IngestHook hook);

  /// One past the WAL sequence of the last hook-logged snapshot actually
  /// ingested by drain() — the `wal_next` horizon a checkpoint of
  /// online() state is entitled to claim. 0 until the current hook has
  /// fed a drain; monotonic for the lifetime of one hook.
  std::uint64_t ingested_wal_horizon() const;

  /// Classifies the buffered backlog in parallel on the pipeline's
  /// execution context, then ingests the labels serially in push order.
  /// Returns the number of snapshots classified.
  std::size_t drain();

  /// Snapshots buffered and not yet drained (thread-safe).
  std::size_t backlog() const;

  /// Largest backlog depth observed since construction or the last
  /// attach() — peak is sticky across drains (it answers "how far behind
  /// did this stream ever get"), and attach() starts a fresh episode so
  /// a re-attached stream does not inherit a stale ceiling (thread-safe).
  std::size_t backlog_peak() const;

  /// Pushes dropped on a full buffer since construction (thread-safe).
  std::size_t dropped() const;

  /// Buffered snapshots overwritten by newer ones under
  /// OverflowPolicy::kOverwriteOldest (thread-safe).
  std::size_t overwritten() const;

  /// Heap allocations the backlog rings have performed (initial sizing
  /// plus growth; thread-safe). Flat across a steady-state workload.
  std::uint64_t ring_grows() const;

  /// Subscribes push() to a bus; detaches from any previous bus first,
  /// and resets backlog_peak() for the new subscription episode.
  /// The bus must outlive the stream (or call detach() before it dies).
  void attach(monitor::MetricBus& bus);
  void detach();

  /// Per-node rolling state (compositions, stable classes, change
  /// callback registration). Not thread-safe against a concurrent
  /// drain() — inspect between drains.
  core::OnlineClassifier& online() noexcept { return online_; }
  const core::OnlineClassifier& online() const noexcept { return online_; }

 private:
  const core::ClassificationPipeline& pipeline_;
  core::OnlineClassifier online_;
  std::size_t max_backlog_ = 0;
  OverflowPolicy policy_ = OverflowPolicy::kDropNewest;
  mutable std::mutex mutex_;  // guards pending_ / hook / peak / counters
  /// Double buffer: push() fills pending_; drain() swaps it with
  /// drained_ (owned by the drainer outside the lock) so slot and string
  /// capacity circulate between the two instead of being reallocated.
  SnapshotRing pending_;
  SnapshotRing drained_;
  /// Reused classification outputs (SoA queries + labels/details).
  core::SnapshotBatch batch_;
  IngestHook ingest_hook_;
  std::uint64_t ingested_wal_horizon_ = 0;
  std::size_t backlog_peak_ = 0;
  std::size_t dropped_ = 0;
  std::size_t overwritten_ = 0;
  /// Rate-limited backpressure WARN: time of the most recent drop, so the
  /// first drop after a quiet period logs and a drop storm does not.
  std::chrono::steady_clock::time_point last_drop_;
  monitor::MetricBus* bus_ = nullptr;
  monitor::SubscriptionId subscription_ = 0;
};

}  // namespace appclass::engine
