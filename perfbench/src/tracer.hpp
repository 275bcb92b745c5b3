// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own files around each call into
// a layer of the program (name, start, end, parent). They stay in
// per-thread buffers until the run ends, when layer_times() folds them
// into per-layer self time and write_chrome_trace() dumps them as Chrome
// trace_event JSON. Spans given a null tracer cost one branch, which is
// what the untraced run pays.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::uint32_t tid = 0;
  /// Sampling weight: a span recorded for 1 in K operations stands for K.
  double weight = 1.0;
};

/// The recorder's own cost, measured on this host: what one span adds
/// to its own measured duration, and what a child span adds to its
/// parent's duration beyond the child's own measured duration.
struct TracerCost {
  double span_in_ns = 0.0;
  double child_extra_ns = 0.0;
};

/// Measured once per process with empty spans.
const TracerCost& tracer_cost();

/// Self time and count of one span name, sampling weights applied.
struct LayerTime {
  double self_s = 0.0;
  double count = 0.0;
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Per-name self time: a span's duration minus the part its children
  /// on the same thread cover, minus the recorder's own cost inside it
  /// (tracer_cost(): its clock reads and each child's bookkeeping), so
  /// the figures describe the program rather than the measuring.
  /// Children on other threads run in parallel with their parent and are
  /// not subtracted.
  std::map<std::string, LayerTime> layer_times() const;

  /// Writes Chrome trace_event JSON, at most `per_name_cap` spans of each
  /// name (the aggregate above always covers every span). Returns false
  /// when the file cannot be written.
  bool write_chrome_trace(const std::string& path,
                          std::size_t per_name_cap = 4000) const;

  std::size_t span_count() const;

 private:
  friend class Span;
  friend const TracerCost& tracer_cost();
  struct Buffer {
    std::uint32_t tid = 0;
    std::vector<SpanRecord> spans;
  };
  Buffer& thread_buffer();
  std::uint32_t next_id() noexcept;

  std::uint64_t generation_;
  std::int64_t origin_ns_;
  mutable std::mutex mutex_;  // guards buffers_ (registration + readout)
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::atomic<std::uint32_t> id_counter_{0};
};

/// RAII span; records nothing when `tracer` is null. With no explicit
/// parent it nests under the innermost open span of the calling thread.
class Span {
 public:
  Span(Tracer* tracer, const char* name, double weight = 1.0);
  Span(Tracer* tracer, const char* name, std::uint32_t parent,
       double weight = 1.0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint32_t id() const noexcept { return record_.id; }

 private:
  void open(Tracer* tracer, const char* name, std::uint32_t parent,
            double weight);

  Tracer* tracer_ = nullptr;
  SpanRecord record_;
  std::uint32_t saved_current_ = 0;
};

}  // namespace perfbench
