// Dapper-style trace-context propagation and the one RAII stage timer.
//
// A *trace* is one causally-linked tree of spans — e.g. one classified
// snapshot pool: a `classify` root with preprocess/pca_project/knn_query/
// vote children, whose `engine_shard` grandchildren may have run on
// stolen shards on other thread-pool workers. Context lives in a
// thread-local (`current_trace_context`); cross-thread edges are made by
// capturing the context at job submission and adopting it on the worker
// (`ScopedTraceContext`), which the engine ThreadPool does for every
// parallel_for task.
//
// A TraceSpan bound to a stage histogram is also that stage's timer: one
// clock pair feeds the histogram, the recorded span and the exemplar.
// Cost contract: tracing is off by default. Off and unbound, a span is
// one relaxed atomic load and no clock read; off and bound, one clock
// pair plus the observation; on, one clock pair, a flight-recorder entry
// (obs/recorder.hpp) and an exemplar referencing the trace id.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace appclass::obs {

/// W3C-trace-context-shaped identity of one span. Ids are process-unique
/// non-zero integers; trace_id == 0 means "no active trace".
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;

  bool active() const noexcept { return trace_id != 0; }
};

/// The one histogram family every pipeline stage reports to:
/// `appclass_stage_seconds{stage=<name>}` on the global registry.
Histogram& stage_histogram(std::string_view stage);

/// Process-wide tracing switch (relaxed atomic; default off).
bool tracing_enabled() noexcept;
void set_tracing_enabled(bool on) noexcept;

/// Reads APPCLASS_TRACE (1/true/on enables tracing).
void configure_tracing_from_env();

/// The calling thread's ambient context (inactive when no span is open
/// and nothing was adopted).
TraceContext current_trace_context() noexcept;

/// RAII adoption of a context captured on another thread: installs
/// `adopted` as this thread's ambient context so spans opened underneath
/// parent to the submitting span, and restores the previous ambient
/// context on destruction. The engine ThreadPool wraps every task in one.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& adopted) noexcept;
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
};

/// One structured span attribute; the value is formatted eagerly, but
/// call sites only construct attrs after checking TraceSpan::recording()
/// (or via add_attr, which drops them when not recording).
struct SpanAttr {
  std::string key;
  std::string value;

  SpanAttr(std::string_view k, std::string_view v) : key(k), value(v) {}
  SpanAttr(std::string_view k, const char* v) : key(k), value(v) {}
  SpanAttr(std::string_view k, const std::string& v) : key(k), value(v) {}
  SpanAttr(std::string_view k, double v);
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  SpanAttr(std::string_view k, T v) : key(k), value(std::to_string(v)) {}
};

/// RAII span: under tracing it opens as a child of the thread's ambient
/// context (or as a new trace root), stays the ambient context until
/// scope exit, even after stop(), and is then recorded into the flight
/// recorder. Its timing ends at stop(), stop_per_item(n) or scope exit,
/// whichever comes first.
class TraceSpan {
 public:
  using Clock = std::chrono::steady_clock;

  /// `histogram`, when given, observes the elapsed seconds once, and
  /// under tracing takes (that value, trace_id) as its exemplar.
  explicit TraceSpan(std::string_view name, Histogram* histogram = nullptr);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// True when this span will be recorded (tracing was enabled at
  /// construction). Guard expensive attribute computation on it.
  bool recording() const noexcept { return recording_; }

  /// Attaches a structured attribute; dropped when not recording.
  void add_attr(SpanAttr attr);

  const TraceContext& context() const noexcept { return context_; }

  /// Ends the timing, observes the elapsed seconds and returns them (0
  /// when the span times nothing or was already stopped).
  double stop() noexcept { return finish(1); }

  /// Ends the timing and observes (elapsed / items) `items` times: the
  /// batched-loop form. No observation when items == 0.
  void stop_per_item(std::uint64_t items) noexcept { finish(items); }

 private:
  double finish(std::uint64_t items) noexcept;

  bool recording_ = false;
  /// The clock was read at construction and the timing has not ended.
  bool timing_ = false;
  TraceContext context_;
  TraceContext saved_;
  std::string name_;
  Histogram* histogram_ = nullptr;
  Clock::time_point start_;
  Clock::time_point end_;
  std::vector<SpanAttr> attrs_;
};

}  // namespace appclass::obs
