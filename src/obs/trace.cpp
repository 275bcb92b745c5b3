#include "obs/trace.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/recorder.hpp"

namespace appclass::obs {
namespace {

std::atomic<bool> g_enabled{false};
/// One id space for trace and span ids keeps both process-unique.
std::atomic<std::uint64_t> g_next_id{1};

thread_local TraceContext t_current;

std::uint64_t next_id() noexcept {
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Histogram& stage_histogram(std::string_view stage) {
  return MetricsRegistry::global().histogram(
      "appclass_stage_seconds", {{"stage", std::string(stage)}});
}

bool tracing_enabled() noexcept {
  return g_enabled.load(std::memory_order_relaxed);
}

void set_tracing_enabled(bool on) noexcept {
  // Anchor the recorder epoch first: no recorded span starts before it.
  if (on) (void)trace_us(TraceSpan::Clock::now());
  g_enabled.store(on, std::memory_order_relaxed);
}

void configure_tracing_from_env() {
  const char* v = std::getenv("APPCLASS_TRACE");
  if (!v) return;
  set_tracing_enabled(!std::strcmp(v, "1") || !std::strcmp(v, "true") ||
                      !std::strcmp(v, "on"));
}

TraceContext current_trace_context() noexcept { return t_current; }

ScopedTraceContext::ScopedTraceContext(const TraceContext& adopted) noexcept
    : saved_(t_current) {
  t_current = adopted;
}

ScopedTraceContext::~ScopedTraceContext() { t_current = saved_; }

SpanAttr::SpanAttr(std::string_view k, double v) : key(k) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.6g", v);
  value = buffer;
}

TraceSpan::TraceSpan(std::string_view name, Histogram* histogram)
    : histogram_(histogram) {
  if (tracing_enabled()) {
    recording_ = true;
    name_ = name;
    saved_ = t_current;
    context_.trace_id = saved_.active() ? saved_.trace_id : next_id();
    context_.parent_span_id = saved_.active() ? saved_.span_id : 0;
    context_.span_id = next_id();
    t_current = context_;
  }
  timing_ = recording_ || histogram_ != nullptr;
  if (timing_) start_ = Clock::now();
}

TraceSpan::~TraceSpan() {
  finish(1);
  if (!recording_) return;
  t_current = saved_;
  const std::int64_t start_us = trace_us(start_);
  TraceRecorder::global().record_span(name_, context_, start_us,
                                      trace_us(end_) - start_us,
                                      std::move(attrs_));
}

double TraceSpan::finish(std::uint64_t items) noexcept {
  if (!timing_) return 0.0;
  timing_ = false;
  end_ = Clock::now();
  const double seconds = std::chrono::duration<double>(end_ - start_).count();
  if (histogram_ && items > 0) {
    const double value = seconds / static_cast<double>(items);
    histogram_->observe_many(value, items);
    if (recording_) histogram_->set_exemplar(value, context_.trace_id);
  }
  return seconds;
}

void TraceSpan::add_attr(SpanAttr attr) {
  if (recording_) attrs_.push_back(std::move(attr));
}

}  // namespace appclass::obs
