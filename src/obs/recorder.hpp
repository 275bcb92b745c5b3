// Black-box flight recorder: per-thread ring buffers of recent spans and
// log events, always-on capture when tracing is enabled, dumped as Chrome
// trace_event JSON (loadable in Perfetto / chrome://tracing) on demand,
// on crash, or through `appclass_cli trace dump` and the scrape server's
// /traces/recent route.
//
// Design: every recording thread owns a fixed-size ring (overwrite-oldest)
// guarded by a per-thread mutex that only the dumper ever contends —
// recording stays O(1) with no cross-thread traffic. The global recorder
// keeps a shared_ptr to every ring, so events from exited threads (pool
// workers, drained servers) survive until the next clear().
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace appclass::obs {

/// Microseconds from the process-wide recorder epoch (first use) to `t`.
/// Monotonic; the timestamp base of every recorded event.
std::int64_t trace_us(std::chrono::steady_clock::time_point t) noexcept;

/// Wall-clock microseconds (Unix epoch) captured at the same instant as
/// the recorder epoch. Dumped as `epochWallUs` so a fleet stitcher can
/// align per-process monotonic timestamps onto one time axis.
std::int64_t recorder_epoch_wall_us() noexcept;

/// One recorded event. `kSpan` maps to a Chrome "X" (complete) event,
/// `kInstant` to an "i" (instant) event — the log-record hook uses the
/// latter.
struct TraceEvent {
  enum class Phase { kSpan, kInstant };

  Phase phase = Phase::kSpan;
  std::string name;
  TraceContext context;      ///< ids (all 0 for un-traced instants)
  std::uint32_t tid = 0;     ///< recorder-assigned thread index
  std::int64_t ts_us = 0;    ///< start, relative to the recorder epoch
  std::int64_t dur_us = 0;   ///< kSpan only
  std::vector<SpanAttr> attrs;
};

class TraceRecorder {
 public:
  /// Events retained per recording thread before overwrite-oldest.
  static constexpr std::size_t kDefaultThreadCapacity = 4096;

  TraceRecorder();
  ~TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// The process-wide recorder every TraceSpan and log hook reports to.
  static TraceRecorder& global();

  void record_span(std::string_view name, const TraceContext& context,
                   std::int64_t ts_us, std::int64_t dur_us,
                   std::vector<SpanAttr> attrs);
  void record_instant(std::string_view name, const TraceContext& context,
                      std::vector<SpanAttr> attrs);

  /// Ring capacity for threads that have not recorded yet (existing rings
  /// keep their size). Call before the workload of interest.
  void set_thread_capacity(std::size_t capacity);

  /// Copies every retained event (all threads, exited ones included),
  /// sorted by timestamp.
  std::vector<TraceEvent> events() const;

  /// Retained event count across all rings.
  std::size_t size() const;

  /// Chrome trace_event JSON ({"traceEvents":[...]}): "X" complete events
  /// for spans, "i" instants for log records, ids and span attributes
  /// under "args", plus an `epochWallUs` wall-clock anchor for
  /// cross-process stitching. `max_bytes` > 0 bounds the response for
  /// network serving: the oldest events are dropped until the document
  /// fits, and a `droppedEvents` count records the truncation. 0 means
  /// unbounded (file dumps, crash dumps).
  std::string to_chrome_json(std::size_t max_bytes = 0) const;

  /// Writes to_chrome_json() to `path`; false if the file cannot be
  /// opened or written.
  bool dump_to_file(const std::string& path) const;

  /// Drops every retained event (rings stay registered).
  void clear();

 private:
  struct ThreadRing;

  ThreadRing& ring_for_this_thread();

  mutable std::mutex mutex_;  // guards rings_ and capacity_
  std::vector<std::shared_ptr<ThreadRing>> rings_;
  std::size_t capacity_ = kDefaultThreadCapacity;
  std::uint32_t next_tid_ = 0;
  /// Process-unique id for the per-thread ring cache: a recorder
  /// reconstructed at a freed recorder's address must not inherit its
  /// cached rings.
  const std::uint64_t instance_id_;
};

/// Installs SIGSEGV/SIGBUS/SIGABRT handlers that dump the global
/// recorder's Chrome JSON to `path` before re-raising with the default
/// disposition — the post-mortem half of the flight recorder. Idempotent;
/// the latest path wins.
void install_crash_dump(const std::string& path);

}  // namespace appclass::obs
