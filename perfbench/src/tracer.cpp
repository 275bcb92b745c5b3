#include "tracer.hpp"

#include <algorithm>
#include <cstdio>
#include <string_view>
#include <unordered_map>

namespace perfbench {
namespace {

std::atomic<std::uint64_t> g_generation{0};

/// The calling thread's buffer and innermost open span, valid for the
/// tracer generation it was registered with.
struct ThreadState {
  std::uint64_t generation = 0;
  void* buffer = nullptr;
  std::uint32_t current = 0;
};
thread_local ThreadState t_state;

}  // namespace

Tracer::Tracer()
    : generation_(g_generation.fetch_add(1) + 1),
      origin_ns_(now_ns()) {}

Tracer::Buffer& Tracer::thread_buffer() {
  if (t_state.generation != generation_) {
    const std::lock_guard lock(mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->tid = static_cast<std::uint32_t>(buffers_.size());
    buffers_.back()->spans.reserve(1024);
    t_state.generation = generation_;
    t_state.buffer = buffers_.back().get();
    t_state.current = 0;
  }
  return *static_cast<Buffer*>(t_state.buffer);
}

std::uint32_t Tracer::next_id() noexcept {
  return id_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::size_t Tracer::span_count() const {
  const std::lock_guard lock(mutex_);
  std::size_t n = 0;
  for (const auto& b : buffers_) n += b->spans.size();
  return n;
}

const TracerCost& tracer_cost() {
  static const TracerCost cost = [] {
    constexpr int kReps = 20000;
    Tracer probe;
    for (int i = 0; i < kReps; ++i) {
      Span lone(&probe, "lone");
    }
    for (int i = 0; i < kReps; ++i) {
      Span parent(&probe, "parent");
      Span child(&probe, "child");
    }
    std::vector<double> lone, gap;
    const Tracer::Buffer& buffer = probe.thread_buffer();
    std::unordered_map<std::uint32_t, std::int64_t> child_ns;
    for (const SpanRecord& s : buffer.spans) {
      const std::int64_t dur = s.end_ns - s.start_ns;
      if (std::string_view(s.name) == "lone") lone.push_back(static_cast<double>(dur));
      if (std::string_view(s.name) == "child") child_ns[s.parent] = dur;
    }
    for (const SpanRecord& s : buffer.spans)
      if (std::string_view(s.name) == "parent")
        gap.push_back(static_cast<double>(s.end_ns - s.start_ns - child_ns[s.id]));
    std::sort(lone.begin(), lone.end());
    std::sort(gap.begin(), gap.end());
    TracerCost c;
    c.span_in_ns = lone[lone.size() / 2];
    c.child_extra_ns = std::max(0.0, gap[gap.size() / 2] - c.span_in_ns);
    return c;
  }();
  return cost;
}

std::map<std::string, LayerTime> Tracer::layer_times() const {
  const TracerCost& cost = tracer_cost();
  const std::lock_guard lock(mutex_);
  std::map<std::string, LayerTime> out;
  for (const auto& buffer : buffers_) {
    // Children close before their parent, so one pass that charges each
    // span to its open parent on this thread gives every self time.
    struct Children {
      std::int64_t ns = 0;
      std::int64_t count = 0;
    };
    std::unordered_map<std::uint32_t, Children> children;
    for (const SpanRecord& s : buffer->spans)
      if (s.parent != 0) {
        Children& c = children[s.parent];
        c.ns += s.end_ns - s.start_ns;
        ++c.count;
      }
    for (const SpanRecord& s : buffer->spans) {
      const double dur = static_cast<double>(s.end_ns - s.start_ns);
      const auto it = children.find(s.id);
      double self = dur - cost.span_in_ns;
      if (it != children.end())
        self -= static_cast<double>(it->second.ns) +
                static_cast<double>(it->second.count) * cost.child_extra_ns;
      LayerTime& lt = out[s.name];
      lt.self_s += std::max(0.0, self) * 1e-9 * s.weight;
      lt.count += s.weight;
    }
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path,
                                std::size_t per_name_cap) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::lock_guard lock(mutex_);
  std::map<std::string, std::size_t> written;
  std::size_t dropped = 0;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  bool first = true;
  for (const auto& buffer : buffers_) {
    for (const SpanRecord& s : buffer->spans) {
      if (written[s.name]++ >= per_name_cap) {
        ++dropped;
        continue;
      }
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                   "\"parent\":%u,\"weight\":%g}}",
                   first ? "" : ",", s.name, buffer->tid,
                   static_cast<double>(s.start_ns - origin_ns_) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.id,
                   s.parent, s.weight);
      first = false;
    }
  }
  std::fprintf(f, "],\"otherData\":{\"droppedSpans\":%zu}}\n", dropped);
  return std::fclose(f) == 0;
}

Span::Span(Tracer* tracer, const char* name, double weight) {
  if (tracer == nullptr) return;
  tracer->thread_buffer();
  open(tracer, name, t_state.current, weight);
}

Span::Span(Tracer* tracer, const char* name, std::uint32_t parent,
           double weight) {
  if (tracer == nullptr) return;
  tracer->thread_buffer();
  open(tracer, name, parent, weight);
}

void Span::open(Tracer* tracer, const char* name, std::uint32_t parent,
                double weight) {
  tracer_ = tracer;
  record_.name = name;
  record_.id = tracer->next_id();
  record_.parent = parent;
  record_.weight = weight;
  saved_current_ = t_state.current;
  t_state.current = record_.id;
  record_.start_ns = now_ns();
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  record_.end_ns = now_ns();
  Tracer::Buffer& buffer = tracer_->thread_buffer();
  record_.tid = buffer.tid;
  buffer.spans.push_back(record_);
  t_state.current = saved_current_;
}

}  // namespace perfbench
